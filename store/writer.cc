// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "store/writer.h"

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "data/relation_io.h"
#include "join/join_tree.h"
#include "store/format.h"

namespace maimon {
namespace store {
namespace {

// In-memory image builder: append-only byte buffer plus the section table.
// Sections are staged at 8-aligned offsets; Finish() stamps CRCs, the
// fingerprint, and the header checksum.
class ImageBuilder {
 public:
  /// Reserves the header + section-table prefix; payloads follow it.
  void Reserve(size_t sections) {
    bytes_.resize(AlignUp(sizeof(Header) + sections * sizeof(SectionEntry)),
                  0);
  }

  /// Starts a section of `kind`; subsequent Append calls fill its payload.
  void Begin(uint32_t kind) {
    Pad();
    current_.kind = kind;
    current_.offset = bytes_.size();
  }

  void Append(const void* data, size_t len) {
    const unsigned char* p = static_cast<const unsigned char*>(data);
    bytes_.insert(bytes_.end(), p, p + len);
  }
  template <typename T>
  void AppendPod(const T& value) {
    Append(&value, sizeof(T));
  }

  /// Pads the buffer to the next section-alignment boundary (zero fill).
  void Pad() { bytes_.resize(AlignUp(bytes_.size()), 0); }

  void End() {
    current_.length = bytes_.size() - current_.offset;
    current_.crc = Crc32(bytes_.data() + current_.offset, current_.length);
    entries_.push_back(current_);
  }

  /// Stamps header + section table into the reserved prefix and returns
  /// the finished image.
  std::vector<unsigned char> Finish() {
    Header header;
    header.section_count = static_cast<uint32_t>(entries_.size());
    header.file_bytes = bytes_.size();
    header.fingerprint =
        Fingerprint(header.version, entries_.data(), entries_.size());
    header.header_crc = HeaderCrc(header);
    std::memcpy(bytes_.data(), &header, sizeof(Header));
    std::memcpy(bytes_.data() + sizeof(Header), entries_.data(),
                entries_.size() * sizeof(SectionEntry));
    return std::move(bytes_);
  }

 private:
  std::vector<unsigned char> bytes_;
  std::vector<SectionEntry> entries_;
  SectionEntry current_;
};

Status WriteFileAtomic(const std::string& path,
                       const std::vector<unsigned char>& bytes) {
  const std::string tmp = path + ".tmp." + std::to_string(::getpid());
  const int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) {
    return Status::InvalidArgument("store: cannot create " + tmp + ": " +
                                   std::strerror(errno));
  }
  size_t written = 0;
  while (written < bytes.size()) {
    const ssize_t n =
        ::write(fd, bytes.data() + written, bytes.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      const int err = errno;
      ::close(fd);
      ::unlink(tmp.c_str());
      return Status::InvalidArgument("store: write failed: " +
                                     std::string(std::strerror(err)));
    }
    written += static_cast<size_t>(n);
  }
  // fsync before rename: the rename must never become visible ahead of the
  // data it names.
  if (::fsync(fd) != 0 || ::close(fd) != 0) {
    ::unlink(tmp.c_str());
    return Status::InvalidArgument("store: fsync failed: " +
                                   std::string(std::strerror(errno)));
  }
  if (::rename(tmp.c_str(), path.c_str()) != 0) {
    const int err = errno;
    ::unlink(tmp.c_str());
    return Status::InvalidArgument("store: rename to " + path + " failed: " +
                                   std::strerror(err));
  }
  return Status::Ok();
}

}  // namespace

Status Writer::Write(const ProjectionStore& projs, const std::string& path,
                     obs::Sink* sink) const {
  obs::Span span(sink, "store.write");

  // Resolve the universe: widest attribute across projections and schema.
  AttrSet universe;
  for (const StoredProjection& p : projs.projections()) {
    universe = universe.Union(p.attrs);
  }
  universe = universe.Union(meta_.schema.UniverseAttrs());
  const int width =
      universe.Empty() ? 0 : universe.ToVector().back() + 1;

  std::vector<std::string> names = meta_.column_names;
  if (names.empty()) names = DefaultColumnNames(width);
  if (static_cast<int>(names.size()) < width) {
    return Status::InvalidArgument(
        "store: column_names narrower than the projection universe");
  }

  std::vector<AttrSet> schema_rels = meta_.schema.Relations();
  if (schema_rels.empty()) {
    for (const StoredProjection& p : projs.projections()) {
      schema_rels.push_back(p.attrs);
    }
  }

  ImageBuilder image;
  image.Reserve(8);

  // kMeta
  image.Begin(kMeta);
  MetaSection meta;
  meta.epsilon = meta_.epsilon;
  meta.savings_pct = meta_.savings_pct;
  meta.spurious_pct = meta_.spurious_pct;
  meta.j_measure = meta_.j_measure;
  meta.original_cells = projs.original_cells();
  meta.num_projections = projs.NumProjections();
  meta.universe_width = static_cast<uint32_t>(width);
  if (projs.canonical()) meta.flags |= kFlagCanonical;
  image.AppendPod(meta);
  image.End();

  // kNames: count, then count+1 u32 offsets into the byte pool, then the
  // pool itself (names back to back, no terminators).
  image.Begin(kNames);
  image.AppendPod(static_cast<uint32_t>(names.size()));
  uint32_t cursor = 0;
  for (const std::string& name : names) {
    image.AppendPod(cursor);
    cursor += static_cast<uint32_t>(name.size());
  }
  image.AppendPod(cursor);
  for (const std::string& name : names) {
    image.Append(name.data(), name.size());
  }
  image.End();

  // kSchema
  image.Begin(kSchema);
  for (AttrSet rel : schema_rels) image.AppendPod(rel.bits());
  image.End();

  // kJoinTree: the deterministic max-overlap tree over the projection
  // attribute sets — the same tree every executor/planner over this store
  // builds, persisted so a reader can cross-check without rebuilding.
  image.Begin(kJoinTree);
  if (!projs.projections().empty()) {
    std::vector<AttrSet> rels;
    rels.reserve(projs.NumProjections());
    for (const StoredProjection& p : projs.projections()) {
      rels.push_back(p.attrs);
    }
    const JoinTree tree = BuildMaxOverlapJoinTree(rels);
    for (int parent : tree.parent) {
      image.AppendPod(static_cast<int32_t>(parent));
    }
  }
  image.End();

  // kMvds
  image.Begin(kMvds);
  for (const Mvd& m : meta_.mvds) {
    image.AppendPod(m.key().bits());
    image.AppendPod(m.deps()[0].bits());
    image.AppendPod(m.deps()[1].bits());
  }
  image.End();

  // kProjTable + kProjCols + kColumnData are laid out together: the table
  // and column records are computed first (their data offsets depend only
  // on row counts), then the column arrays are emitted column-major.
  std::vector<ProjEntry> table;
  std::vector<ProjColEntry> cols;
  uint64_t data_cursor = 0;
  for (const StoredProjection& p : projs.projections()) {
    ProjEntry entry;
    entry.attrs = p.attrs.bits();
    entry.num_rows = p.NumRows();
    entry.first_col = cols.size();
    entry.num_cols = static_cast<uint32_t>(p.columns.size());
    table.push_back(entry);
    for (size_t c = 0; c < p.columns.size(); ++c) {
      ProjColEntry col;
      col.column = static_cast<uint32_t>(p.columns[c]);
      col.domain = p.domains[c];
      col.data_offset = data_cursor;
      cols.push_back(col);
      data_cursor = AlignUp(data_cursor + p.NumRows() * sizeof(uint32_t));
    }
  }

  image.Begin(kProjTable);
  for (const ProjEntry& entry : table) image.AppendPod(entry);
  image.End();

  image.Begin(kProjCols);
  for (const ProjColEntry& col : cols) image.AppendPod(col);
  image.End();

  // The in-memory column arrays are the file's column arrays, verbatim.
  image.Begin(kColumnData);
  for (const StoredProjection& p : projs.projections()) {
    for (const std::vector<uint32_t>& column : p.codes) {
      image.Append(column.data(), column.size() * sizeof(uint32_t));
      image.Pad();
    }
  }
  image.End();

  const std::vector<unsigned char> bytes = image.Finish();
  const Status status = WriteFileAtomic(path, bytes);
  if (status.ok()) {
    obs::Count(sink, "store.writes", 1);
    obs::Count(sink, "store.bytes_written", bytes.size());
    span.Arg("bytes", static_cast<uint64_t>(bytes.size()));
    span.Arg("projections", static_cast<uint64_t>(projs.NumProjections()));
  }
  return status;
}

}  // namespace store
}  // namespace maimon
