// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "data/relation_io.h"

#include <algorithm>
#include <cstdint>
#include <fstream>
#include <utility>

namespace maimon {
namespace {

// Splits one CSV line on commas (no quoting: cells are integers or plain
// column names, which is all this format ever contains).
std::vector<std::string> SplitCsvLine(const std::string& line) {
  std::vector<std::string> cells;
  std::string cell;
  for (char ch : line) {
    if (ch == ',') {
      cells.push_back(std::move(cell));
      cell.clear();
    } else if (ch != '\r') {  // tolerate CRLF files
      cell.push_back(ch);
    }
  }
  cells.push_back(std::move(cell));
  return cells;
}

bool ParseCode(const std::string& cell, uint32_t* out) {
  if (cell.empty()) return false;
  uint64_t value = 0;
  for (char ch : cell) {
    if (ch < '0' || ch > '9') return false;
    value = value * 10 + static_cast<uint64_t>(ch - '0');
    if (value > UINT32_MAX) return false;
  }
  *out = static_cast<uint32_t>(value);
  return true;
}

}  // namespace

std::vector<std::string> DefaultColumnNames(int num_cols) {
  std::vector<std::string> names;
  names.reserve(static_cast<size_t>(num_cols));
  for (int c = 0; c < num_cols; ++c) {
    if (c < 26) {
      names.push_back(std::string(1, static_cast<char>('A' + c)));
    } else {
      names.push_back("c" + std::to_string(c));
    }
  }
  return names;
}

Status ExportCsv(const Relation& relation, const std::string& path,
                 const std::vector<std::string>& column_names) {
  const int n = relation.NumCols();
  std::vector<std::string> names =
      column_names.empty() ? DefaultColumnNames(n) : column_names;
  if (static_cast<int>(names.size()) != n) {
    return Status::InvalidArgument("column name count != relation width");
  }

  std::ofstream out(path);
  if (!out) return Status::InvalidArgument("cannot open for write: " + path);
  for (int c = 0; c < n; ++c) {
    if (c > 0) out << ',';
    out << names[static_cast<size_t>(c)];
  }
  out << '\n';
  for (size_t r = 0; r < relation.NumRows(); ++r) {
    for (int c = 0; c < n; ++c) {
      if (c > 0) out << ',';
      out << relation.Value(r, c);
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::InvalidArgument("write failed: " + path);
  return Status::Ok();
}

Status ImportCsv(const std::string& path, Relation* out,
                 std::vector<std::string>* header) {
  std::ifstream in(path);
  if (!in) return Status::InvalidArgument("cannot open for read: " + path);

  std::string line;
  if (!std::getline(in, line)) {
    return Status::InvalidArgument("empty CSV (no header): " + path);
  }
  const std::vector<std::string> names = SplitCsvLine(line);
  const size_t n = names.size();
  // AttrSet, and with it every miner, addresses at most kMaxAttrs columns;
  // a wider relation would silently lose every column past the limit.
  if (n > static_cast<size_t>(AttrSet::kMaxAttrs)) {
    return Status::InvalidArgument(
        "CSV has " + std::to_string(n) + " columns, more than the " +
        std::to_string(AttrSet::kMaxAttrs) + " supported: " + path);
  }
  if (header != nullptr) *header = names;

  std::vector<std::vector<uint32_t>> columns(n);
  while (std::getline(in, line)) {
    if (line.empty()) continue;  // tolerate a trailing newline
    const std::vector<std::string> cells = SplitCsvLine(line);
    if (cells.size() != n) {
      return Status::InvalidArgument("ragged CSV row in " + path);
    }
    for (size_t c = 0; c < n; ++c) {
      uint32_t code = 0;
      if (!ParseCode(cells[c], &code)) {
        return Status::InvalidArgument("non-integer CSV cell \"" + cells[c] +
                                       "\" in " + path);
      }
      // The domain is max code + 1, which must itself fit in a u32.
      if (code == UINT32_MAX) {
        return Status::InvalidArgument("CSV cell " + cells[c] +
                                       " leaves no room for a domain size in " +
                                       path);
      }
      columns[c].push_back(code);
    }
  }

  // Codes preserved verbatim; domains tighten to the observed maximum so
  // the round trip is column-exact even for relations whose declared
  // domains exceed their observed codes.
  std::vector<uint32_t> domains(n, 1);
  for (size_t c = 0; c < n; ++c) {
    uint32_t max_code = 0;
    for (uint32_t v : columns[c]) max_code = std::max(max_code, v);
    domains[c] = max_code + 1;
  }
  *out = Relation(std::move(columns), std::move(domains));
  return Status::Ok();
}

}  // namespace maimon
