// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// store::MappedStore — the read side of the persistent store: opens a file
// written by store::Writer read-only, mmaps it once, and serves every
// section straight out of the mapping (zero parse cost; N processes share
// one page-cache copy of the same file).
//
// Validation discipline (the corruption-handling contract store_test pins
// under ASan):
//
//   * Open() validates the header eagerly: size, magic, version, header
//     CRC, exact file length, and every section-table entry's alignment
//     and bounds (overflow-safe), plus the table fingerprint. A file that
//     fails any of these never becomes an open store.
//   * Section PAYLOADS are validated lazily: the first accessor that
//     touches a section CRC-checks it (once, cached), so opening a huge
//     store costs one header check, not a full-file scan — but no payload
//     byte is ever interpreted before its CRC passed.
//   * Every validation failure is Status::DataLoss with a specific
//     message; no failure mode crashes or reads out of bounds.

#ifndef MAIMON_STORE_MAPPED_STORE_H_
#define MAIMON_STORE_MAPPED_STORE_H_

#include <string>
#include <vector>

#include "core/mvd.h"
#include "core/schema.h"
#include "decomp/projection_store.h"
#include "join/join_tree.h"
#include "obs/trace.h"
#include "store/format.h"
#include "util/status.h"

namespace maimon {
namespace store {

class MappedStore {
 public:
  MappedStore() = default;
  ~MappedStore();

  MappedStore(MappedStore&& other) noexcept;
  MappedStore& operator=(MappedStore&& other) noexcept;
  MappedStore(const MappedStore&) = delete;
  MappedStore& operator=(const MappedStore&) = delete;

  /// Opens + maps `path` and validates the header and section table (not
  /// yet the payloads). On failure `*out` stays closed. Emits a
  /// "store.open" span and store.opens / store.bytes_mapped counters.
  static Status Open(const std::string& path, MappedStore* out,
                     obs::Sink* sink = nullptr);

  bool is_open() const { return base_ != nullptr; }

  // ---- header introspection (valid after Open) ----------------------------
  uint32_t version() const { return header_.version; }
  uint64_t fingerprint() const { return header_.fingerprint; }
  uint64_t file_bytes() const { return header_.file_bytes; }
  const std::vector<SectionEntry>& sections() const { return sections_; }

  // ---- section accessors (lazily CRC-validated) ----------------------------

  /// Store-level scalars (kMeta).
  Status ReadMeta(MetaSection* out) const;

  /// Interned column names of the original relation (kNames).
  Status ReadColumnNames(std::vector<std::string>* out) const;

  /// The decomposition schema (kSchema).
  Status ReadSchema(Schema* out) const;

  /// Persisted join-tree parent array (kJoinTree), rebuilt into a full
  /// JoinTree via JoinTreeFromParents (validating shape).
  Status ReadJoinTree(JoinTree* out) const;

  /// Mined full MVDs (kMvds).
  Status ReadMvds(std::vector<Mvd>* out) const;

  /// Zero-copy view of one stored column array: `*data` points into the
  /// mapping (valid while this store is open), `*rows` is its length.
  /// Validates the projection metadata + column-data CRCs on first use.
  Status ColumnSpan(size_t projection, size_t col, const uint32_t** data,
                    size_t* rows) const;

  /// Materializes the full foreign ProjectionStore: each mapped column
  /// array is checked code-by-code against its domain and copied into the
  /// projection's own column array of the same layout — one allocation
  /// per column, no parsing, no dedup. The result carries original_cells
  /// and the canonical flag from kMeta, so it plugs directly into
  /// serve::QueryService / Swap. Emits a "store.load" span plus
  /// store.load.projections / store.load.rows counters.
  Status ToProjectionStore(ProjectionStore* out,
                           obs::Sink* sink = nullptr) const;

 private:
  void Close();
  /// The table entry of `kind`; null when absent.
  const SectionEntry* Find(uint32_t kind) const;
  /// CRC-validates section `kind` once (cached) and returns its payload
  /// pointer + length. Any failure is DataLoss.
  Status Section(uint32_t kind, const unsigned char** data,
                 size_t* len) const;

  const unsigned char* base_ = nullptr;
  size_t mapped_bytes_ = 0;
  Header header_;
  std::vector<SectionEntry> sections_;
  /// Lazily-set per-section CRC verdicts, indexed like sections_.
  /// 0 = unchecked, 1 = valid (invalid sections are not cached — every
  /// access re-reports DataLoss). Mutable cache: validation does not
  /// change what any accessor returns.
  mutable std::vector<unsigned char> validated_;
};

/// Convenience: Open + ToProjectionStore in one call — the cold-start
/// entry point benches and serve/ use.
Status LoadProjectionStore(const std::string& path, ProjectionStore* out,
                           obs::Sink* sink = nullptr);

}  // namespace store
}  // namespace maimon

#endif  // MAIMON_STORE_MAPPED_STORE_H_
