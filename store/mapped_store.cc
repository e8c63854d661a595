// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.

#include "store/mapped_store.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace maimon {
namespace store {
namespace {

// memcpy-based POD read: the mapping is properly aligned (section offsets
// are 8-aligned and mmap returns page-aligned memory), but going through
// memcpy keeps every record read well-defined regardless.
template <typename T>
T ReadPod(const unsigned char* p) {
  T out;
  std::memcpy(&out, p, sizeof(T));
  return out;
}

std::string KindName(uint32_t kind) {
  switch (kind) {
    case kMeta: return "meta";
    case kNames: return "names";
    case kSchema: return "schema";
    case kJoinTree: return "join_tree";
    case kMvds: return "mvds";
    case kProjTable: return "proj_table";
    case kProjCols: return "proj_cols";
    case kColumnData: return "column_data";
    default: return "kind " + std::to_string(kind);
  }
}

}  // namespace

MappedStore::~MappedStore() { Close(); }

MappedStore::MappedStore(MappedStore&& other) noexcept { *this = std::move(other); }

MappedStore& MappedStore::operator=(MappedStore&& other) noexcept {
  if (this != &other) {
    Close();
    base_ = other.base_;
    mapped_bytes_ = other.mapped_bytes_;
    header_ = other.header_;
    sections_ = std::move(other.sections_);
    validated_ = std::move(other.validated_);
    other.base_ = nullptr;
    other.mapped_bytes_ = 0;
  }
  return *this;
}

void MappedStore::Close() {
  if (base_ != nullptr) {
    ::munmap(const_cast<unsigned char*>(base_), mapped_bytes_);
    base_ = nullptr;
    mapped_bytes_ = 0;
  }
  sections_.clear();
  validated_.clear();
}

Status MappedStore::Open(const std::string& path, MappedStore* out,
                         obs::Sink* sink) {
  obs::Span span(sink, "store.open");
  out->Close();

  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    return Status::InvalidArgument("store: cannot open " + path + ": " +
                                   std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return Status::InvalidArgument("store: fstat failed on " + path);
  }
  const size_t size = static_cast<size_t>(st.st_size);
  if (size < sizeof(Header)) {
    ::close(fd);
    return Status::DataLoss("store: file shorter than the header (" +
                            std::to_string(size) + " bytes)");
  }
  void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return Status::InvalidArgument("store: mmap failed: " +
                                   std::string(std::strerror(errno)));
  }
  const unsigned char* base = static_cast<const unsigned char*>(map);

  // Header validation, strictly before anything else is interpreted.
  const Header header = ReadPod<Header>(base);
  Status bad;
  if (header.magic != kMagic) {
    bad = Status::DataLoss("store: bad magic (not a maimon store file)");
  } else if (header.header_crc != HeaderCrc(header)) {
    bad = Status::DataLoss("store: header CRC mismatch");
  } else if (header.version != kFormatVersion) {
    bad = Status::DataLoss("store: unsupported format version " +
                           std::to_string(header.version));
  } else if (header.file_bytes != size) {
    bad = Status::DataLoss("store: file is " + std::to_string(size) +
                           " bytes, header expects " +
                           std::to_string(header.file_bytes) +
                           " (truncated or padded)");
  }
  if (!bad.ok()) {
    ::munmap(map, size);
    return bad;
  }

  // Section table: bounds + alignment of every entry validated up front,
  // so no later accessor needs to re-derive safety. Overflow-safe: offset
  // and length are checked against the file size individually first.
  const size_t table_bytes =
      static_cast<size_t>(header.section_count) * sizeof(SectionEntry);
  if (sizeof(Header) + table_bytes > size) {
    ::munmap(map, size);
    return Status::DataLoss("store: section table exceeds the file");
  }
  std::vector<SectionEntry> sections(header.section_count);
  std::memcpy(sections.data(), base + sizeof(Header), table_bytes);
  for (const SectionEntry& entry : sections) {
    if (entry.offset % kSectionAlign != 0 || entry.offset > size ||
        entry.length > size || entry.offset + entry.length > size ||
        entry.offset < sizeof(Header) + table_bytes) {
      ::munmap(map, size);
      return Status::DataLoss("store: section " + KindName(entry.kind) +
                              " out of bounds (offset " +
                              std::to_string(entry.offset) + ", length " +
                              std::to_string(entry.length) + ")");
    }
  }
  if (Fingerprint(header.version, sections.data(), sections.size()) !=
      header.fingerprint) {
    ::munmap(map, size);
    return Status::DataLoss("store: section-table fingerprint mismatch");
  }

  out->base_ = base;
  out->mapped_bytes_ = size;
  out->header_ = header;
  out->sections_ = std::move(sections);
  out->validated_.assign(out->sections_.size(), 0);
  obs::Count(sink, "store.opens", 1);
  obs::Count(sink, "store.bytes_mapped", size);
  span.Arg("bytes", static_cast<uint64_t>(size));
  return Status::Ok();
}

const SectionEntry* MappedStore::Find(uint32_t kind) const {
  for (const SectionEntry& entry : sections_) {
    if (entry.kind == kind) return &entry;
  }
  return nullptr;
}

Status MappedStore::Section(uint32_t kind, const unsigned char** data,
                            size_t* len) const {
  if (!is_open()) {
    return Status::InvalidArgument("store: not open");
  }
  const SectionEntry* entry = Find(kind);
  if (entry == nullptr) {
    return Status::DataLoss("store: missing section " + KindName(kind));
  }
  const size_t index = static_cast<size_t>(entry - sections_.data());
  if (validated_[index] == 0) {
    // Lazy per-section CRC: the payload is hashed on first access and
    // never interpreted before this passes. Bounds were established at
    // Open, so the hash itself cannot read out of the mapping.
    if (Crc32(base_ + entry->offset, entry->length) != entry->crc) {
      return Status::DataLoss("store: CRC mismatch in section " +
                              KindName(kind));
    }
    validated_[index] = 1;
  }
  *data = base_ + entry->offset;
  *len = entry->length;
  return Status::Ok();
}

Status MappedStore::ReadMeta(MetaSection* out) const {
  const unsigned char* data;
  size_t len;
  Status status = Section(kMeta, &data, &len);
  if (!status.ok()) return status;
  if (len != sizeof(MetaSection)) {
    return Status::DataLoss("store: meta section has wrong size");
  }
  *out = ReadPod<MetaSection>(data);
  if (out->universe_width > static_cast<uint32_t>(AttrSet::kMaxAttrs)) {
    return Status::DataLoss("store: universe wider than AttrSet supports");
  }
  return Status::Ok();
}

Status MappedStore::ReadColumnNames(std::vector<std::string>* out) const {
  const unsigned char* data;
  size_t len;
  Status status = Section(kNames, &data, &len);
  if (!status.ok()) return status;
  if (len < sizeof(uint32_t)) {
    return Status::DataLoss("store: names section truncated");
  }
  const uint32_t count = ReadPod<uint32_t>(data);
  const size_t header_bytes =
      sizeof(uint32_t) * (static_cast<size_t>(count) + 2);
  if (count > len || header_bytes > len) {
    return Status::DataLoss("store: names offset table exceeds section");
  }
  const size_t pool_bytes = len - header_bytes;
  out->clear();
  out->reserve(count);
  uint32_t prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t begin =
        ReadPod<uint32_t>(data + sizeof(uint32_t) * (1 + i));
    const uint32_t end =
        ReadPod<uint32_t>(data + sizeof(uint32_t) * (2 + i));
    if (begin < prev || end < begin || end > pool_bytes) {
      return Status::DataLoss("store: names offsets not ascending in-bounds");
    }
    const char* pool = reinterpret_cast<const char*>(data + header_bytes);
    out->emplace_back(pool + begin, pool + end);
    prev = begin;
  }
  return Status::Ok();
}

Status MappedStore::ReadSchema(Schema* out) const {
  const unsigned char* data;
  size_t len;
  Status status = Section(kSchema, &data, &len);
  if (!status.ok()) return status;
  if (len % sizeof(uint64_t) != 0) {
    return Status::DataLoss("store: schema section has ragged size");
  }
  std::vector<AttrSet> rels;
  rels.reserve(len / sizeof(uint64_t));
  for (size_t i = 0; i < len; i += sizeof(uint64_t)) {
    rels.push_back(AttrSet(ReadPod<uint64_t>(data + i)));
  }
  *out = Schema(std::move(rels));
  return Status::Ok();
}

Status MappedStore::ReadJoinTree(JoinTree* out) const {
  const unsigned char* data;
  size_t len;
  Status status = Section(kJoinTree, &data, &len);
  if (!status.ok()) return status;
  if (len % sizeof(int32_t) != 0) {
    return Status::DataLoss("store: join-tree section has ragged size");
  }
  std::vector<int> parents;
  parents.reserve(len / sizeof(int32_t));
  for (size_t i = 0; i < len; i += sizeof(int32_t)) {
    parents.push_back(ReadPod<int32_t>(data + i));
  }
  if (!JoinTreeFromParents(parents, out)) {
    return Status::DataLoss("store: join-tree parents do not form a tree");
  }
  return Status::Ok();
}

Status MappedStore::ReadMvds(std::vector<Mvd>* out) const {
  const unsigned char* data;
  size_t len;
  Status status = Section(kMvds, &data, &len);
  if (!status.ok()) return status;
  if (len % (3 * sizeof(uint64_t)) != 0) {
    return Status::DataLoss("store: mvd section has ragged size");
  }
  out->clear();
  out->reserve(len / (3 * sizeof(uint64_t)));
  for (size_t i = 0; i < len; i += 3 * sizeof(uint64_t)) {
    const AttrSet key(ReadPod<uint64_t>(data + i));
    const AttrSet dep0(ReadPod<uint64_t>(data + i + 8));
    const AttrSet dep1(ReadPod<uint64_t>(data + i + 16));
    out->push_back(Mvd(key, dep0, dep1));
  }
  return Status::Ok();
}

Status MappedStore::ColumnSpan(size_t projection, size_t col,
                               const uint32_t** data, size_t* rows) const {
  const unsigned char* table;
  size_t table_len;
  Status status = Section(kProjTable, &table, &table_len);
  if (!status.ok()) return status;
  if (table_len % sizeof(ProjEntry) != 0) {
    return Status::DataLoss("store: projection table has ragged size");
  }
  if (projection >= table_len / sizeof(ProjEntry)) {
    return Status::InvalidArgument("store: projection index out of range");
  }
  const ProjEntry entry =
      ReadPod<ProjEntry>(table + projection * sizeof(ProjEntry));
  if (col >= entry.num_cols) {
    return Status::InvalidArgument("store: column index out of range");
  }

  const unsigned char* cols;
  size_t cols_len;
  status = Section(kProjCols, &cols, &cols_len);
  if (!status.ok()) return status;
  const size_t num_col_entries = cols_len / sizeof(ProjColEntry);
  if (cols_len % sizeof(ProjColEntry) != 0 ||
      entry.first_col > num_col_entries ||
      entry.num_cols > num_col_entries - entry.first_col) {
    return Status::DataLoss("store: projection column records out of range");
  }
  const ProjColEntry col_entry = ReadPod<ProjColEntry>(
      cols + (entry.first_col + col) * sizeof(ProjColEntry));

  const unsigned char* blob;
  size_t blob_len;
  status = Section(kColumnData, &blob, &blob_len);
  if (!status.ok()) return status;
  const uint64_t bytes = entry.num_rows * sizeof(uint32_t);
  if (entry.num_rows > blob_len / sizeof(uint32_t) ||
      col_entry.data_offset % kSectionAlign != 0 ||
      col_entry.data_offset > blob_len ||
      bytes > blob_len - col_entry.data_offset) {
    return Status::DataLoss("store: column array out of bounds");
  }
  *data = reinterpret_cast<const uint32_t*>(blob + col_entry.data_offset);
  *rows = entry.num_rows;
  return Status::Ok();
}

Status MappedStore::ToProjectionStore(ProjectionStore* out,
                                      obs::Sink* sink) const {
  obs::Span span(sink, "store.load");
  MetaSection meta;
  Status status = ReadMeta(&meta);
  if (!status.ok()) return status;

  const unsigned char* table;
  size_t table_len;
  status = Section(kProjTable, &table, &table_len);
  if (!status.ok()) return status;
  if (table_len % sizeof(ProjEntry) != 0 ||
      table_len / sizeof(ProjEntry) != meta.num_projections) {
    return Status::DataLoss(
        "store: projection table disagrees with the meta section");
  }

  const unsigned char* cols;
  size_t cols_len;
  status = Section(kProjCols, &cols, &cols_len);
  if (!status.ok()) return status;
  if (cols_len % sizeof(ProjColEntry) != 0) {
    return Status::DataLoss("store: projection columns have ragged size");
  }
  const unsigned char* blob;
  size_t blob_len;
  status = Section(kColumnData, &blob, &blob_len);
  if (!status.ok()) return status;

  std::vector<StoredProjection> projections;
  projections.reserve(meta.num_projections);
  uint64_t total_rows = 0;
  for (size_t v = 0; v < meta.num_projections; ++v) {
    const ProjEntry entry = ReadPod<ProjEntry>(table + v * sizeof(ProjEntry));
    StoredProjection sp;
    sp.attrs = AttrSet(entry.attrs);
    if (sp.attrs.Count() != static_cast<int>(entry.num_cols)) {
      return Status::DataLoss(
          "store: projection attribute mask disagrees with column count");
    }
    // A projection without columns cannot carry rows.
    if (entry.num_cols == 0 && entry.num_rows != 0) {
      return Status::DataLoss("store: projection row count exceeds the data");
    }
    sp.columns = sp.attrs.ToVector();
    sp.domains.reserve(entry.num_cols);
    sp.codes.reserve(entry.num_cols);
    for (uint32_t c = 0; c < entry.num_cols; ++c) {
      // ColumnSpan bounds the array inside the column data before anything
      // is allocated for it, so a corrupted row count fails validation
      // instead of driving a huge allocation.
      const uint32_t* column_data;
      size_t rows;
      status = ColumnSpan(v, c, &column_data, &rows);
      if (!status.ok()) return status;
      const ProjColEntry col_entry = ReadPod<ProjColEntry>(
          cols + (entry.first_col + c) * sizeof(ProjColEntry));
      if (static_cast<int>(col_entry.column) != sp.columns[c]) {
        return Status::DataLoss(
            "store: column ids disagree with the attribute mask");
      }
      for (size_t r = 0; r < rows; ++r) {
        if (column_data[r] >= col_entry.domain) {
          return Status::DataLoss("store: column code exceeds its domain");
        }
      }
      sp.domains.push_back(col_entry.domain);
      sp.codes.emplace_back(column_data, column_data + rows);
    }
    total_rows += entry.num_rows;
    projections.push_back(std::move(sp));
  }

  *out = ProjectionStore(std::move(projections), meta.original_cells,
                         (meta.flags & kFlagCanonical) != 0);
  obs::Count(sink, "store.load.projections", meta.num_projections);
  obs::Count(sink, "store.load.rows", total_rows);
  span.Arg("projections", meta.num_projections);
  span.Arg("rows", total_rows);
  return Status::Ok();
}

Status LoadProjectionStore(const std::string& path, ProjectionStore* out,
                           obs::Sink* sink) {
  MappedStore mapped;
  Status status = MappedStore::Open(path, &mapped, sink);
  if (!status.ok()) return status;
  return mapped.ToProjectionStore(out, sink);
}

}  // namespace store
}  // namespace maimon
