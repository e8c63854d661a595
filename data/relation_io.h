// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// CSV export/import for Relation, so decomposed projections (and any other
// relation) can be dumped to disk and inspected. A Relation stores only
// dictionary codes — the mining pipeline never sees raw values — so the
// codes ARE the decoded values here: each cell is written as its uint32
// code. Export writes a header row of column names (attribute letters
// "A,B,..." by default, matching AttrSet::ToString); import skips the
// header and preserves the codes verbatim (domain = max code + 1 per
// column), so export -> import round-trips to column-identical data.

#ifndef MAIMON_DATA_RELATION_IO_H_
#define MAIMON_DATA_RELATION_IO_H_

#include <string>
#include <vector>

#include "data/relation.h"
#include "util/status.h"

namespace maimon {

/// Default header names: "A".."Z" for the first 26 columns, "c<i>" beyond.
std::vector<std::string> DefaultColumnNames(int num_cols);

/// Writes `relation` as CSV to `path` (header row + one line per row).
/// `column_names` overrides the header; empty means DefaultColumnNames.
/// Fails with kInvalidArgument on a name-count mismatch or an unwritable
/// path.
Status ExportCsv(const Relation& relation, const std::string& path,
                 const std::vector<std::string>& column_names = {});

/// Reads a CSV written by ExportCsv (or any integer CSV with a header row)
/// into `out`; `header` (nullable) receives the column names. Codes are
/// preserved exactly as written. Fails with kInvalidArgument on a missing
/// file, a non-integer cell, a ragged row, more than AttrSet::kMaxAttrs
/// columns, or a code of 4294967295 (its domain size would not fit a u32).
Status ImportCsv(const std::string& path, Relation* out,
                 std::vector<std::string>* header = nullptr);

}  // namespace maimon

#endif  // MAIMON_DATA_RELATION_IO_H_
