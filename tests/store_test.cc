// Copyright (c) Maimon-cpp authors. Licensed under the MIT license.
//
// The persistent store's two contracts (store/):
//
//   * round-trip fidelity: Writer -> MappedStore reproduces the
//     ProjectionStore byte-for-byte (attrs, columns, domains, every row in
//     order) plus the full mining context (meta scalars, column names,
//     schema, MVDs, join tree), on <= 10-attribute chain fixtures, the
//     full Nursery relation, the canonical (reduced) variant, and the
//     empty/zero-row edge cases;
//   * corruption safety: a truncated file, a flipped magic, a bit flip in
//     a section payload, and an out-of-bounds section offset each surface
//     as Status kDataLoss — never a crash, never UB (this test runs in the
//     ASan lane), and never a section interpreted before its CRC passed;
//     a sweep over every single-byte flip and every truncation length of
//     a small store file either fails with kDataLoss or loads a store that
//     answers a fixed query set byte-identically to the intact file; and a
//     row count past the column data is kDataLoss even with every
//     checksum re-stamped.

#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "data/nursery.h"
#include "data/planted.h"
#include "data/relation_io.h"
#include "decomp/projection_store.h"
#include "decomp/yannakakis.h"
#include "join/join_tree.h"
#include "obs/trace.h"
#include "serve/service.h"
#include "store/format.h"
#include "store/mapped_store.h"
#include "store/writer.h"
#include "tests/test_util.h"

namespace maimon {
namespace {

std::string TempPath(const std::string& name) {
  return "/tmp/maimon_store_test_" +
         std::to_string(static_cast<long>(::getpid())) + "_" + name;
}

// RAII deleter so failed CHECKs don't strand files in /tmp forever.
struct FileGuard {
  std::string path;
  explicit FileGuard(std::string p) : path(std::move(p)) {}
  ~FileGuard() { std::remove(path.c_str()); }
};

std::string ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  CHECK(in.good());
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  CHECK(out.good());
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  CHECK(out.good());
}

Relation MakeRelation(int attrs, uint64_t seed, size_t max_rows = 512) {
  PlantedSpec spec;
  spec.num_attrs = attrs;
  spec.num_bags = 2;
  spec.root_rows = 64;
  spec.max_rows = max_rows;
  spec.noise_fraction = 0.05;
  spec.domain_size = 6;
  spec.seed = seed;
  return GeneratePlanted(spec).relation;
}

// A chain schema over `attrs` attributes: width-4 windows stepping by 3.
Schema ChainSchema(int attrs) {
  std::vector<AttrSet> rels;
  for (int lo = 0; lo < attrs; lo += 3) {
    AttrSet r;
    for (int a = lo; a < attrs && a < lo + 4; ++a) r.Add(a);
    rels.push_back(r);
    if (lo + 4 >= attrs) break;
  }
  return Schema(std::move(rels));
}

void CheckStoresIdentical(const ProjectionStore& got,
                          const ProjectionStore& want) {
  CHECK_EQ(got.NumProjections(), want.NumProjections());
  CHECK_EQ(got.original_cells(), want.original_cells());
  for (size_t i = 0; i < want.NumProjections(); ++i) {
    const StoredProjection& g = got.projections()[i];
    const StoredProjection& w = want.projections()[i];
    CHECK_EQ(g.attrs.bits(), w.attrs.bits());
    CHECK_EQ(g.columns, w.columns);
    CHECK_EQ(g.domains, w.domains);
    CHECK_EQ(g.codes, w.codes);  // every row, in order, byte-identical
  }
}

TEST_CASE(RoundTripIsByteIdenticalOnChainFixtures) {
  for (int attrs : {4, 7, 10}) {
    const Relation r = MakeRelation(attrs, 100 + static_cast<uint64_t>(attrs));
    const Schema schema = ChainSchema(attrs);
    const ProjectionStore built(r, schema);

    store::StoreMeta meta;
    meta.epsilon = 0.05;
    meta.savings_pct = 12.5;
    meta.spurious_pct = 0.75;
    meta.j_measure = 0.875;
    meta.column_names = DefaultColumnNames(r.NumCols());
    meta.schema = schema;
    meta.mvds.emplace_back(AttrSet(0b0110), AttrSet(0b0001), AttrSet(0b1000));
    const store::Writer writer(meta);

    const FileGuard file(TempPath("roundtrip_" + std::to_string(attrs)));
    CHECK(writer.Write(built, file.path).ok());

    store::MappedStore mapped;
    CHECK(store::MappedStore::Open(file.path, &mapped).ok());
    CHECK(mapped.is_open());
    CHECK_EQ(mapped.version(), store::kFormatVersion);
    CHECK_EQ(mapped.file_bytes(), ReadFileBytes(file.path).size());
    CHECK_EQ(mapped.sections().size(), size_t{8});

    store::MetaSection ms;
    CHECK(mapped.ReadMeta(&ms).ok());
    CHECK_EQ(ms.epsilon, meta.epsilon);
    CHECK_EQ(ms.savings_pct, meta.savings_pct);
    CHECK_EQ(ms.spurious_pct, meta.spurious_pct);
    CHECK_EQ(ms.j_measure, meta.j_measure);
    CHECK_EQ(ms.original_cells, built.original_cells());
    CHECK_EQ(ms.num_projections, built.NumProjections());
    CHECK_EQ(ms.universe_width, static_cast<uint32_t>(r.NumCols()));
    CHECK_EQ(ms.flags & store::kFlagCanonical, 0u);

    std::vector<std::string> names;
    CHECK(mapped.ReadColumnNames(&names).ok());
    CHECK_EQ(names, meta.column_names);

    Schema schema_back;
    CHECK(mapped.ReadSchema(&schema_back).ok());
    CHECK(schema_back == schema);

    std::vector<Mvd> mvds_back;
    CHECK(mapped.ReadMvds(&mvds_back).ok());
    CHECK_EQ(mvds_back.size(), meta.mvds.size());
    CHECK(mvds_back[0] == meta.mvds[0]);

    // The persisted join tree is the same max-overlap tree the write side
    // built over the projection attribute sets.
    std::vector<AttrSet> rels;
    for (const StoredProjection& p : built.projections()) {
      rels.push_back(p.attrs);
    }
    const JoinTree want_tree = BuildMaxOverlapJoinTree(rels);
    JoinTree tree;
    CHECK(mapped.ReadJoinTree(&tree).ok());
    CHECK_EQ(tree.parent, want_tree.parent);
    CHECK_EQ(tree.preorder, want_tree.preorder);

    ProjectionStore loaded(std::vector<StoredProjection>(), 0);
    CHECK(mapped.ToProjectionStore(&loaded).ok());
    CHECK(!loaded.canonical());
    CheckStoresIdentical(loaded, built);
  }
}

TEST_CASE(CanonicalReducedStoreRoundTripsWithFlag) {
  const Relation r = MakeRelation(8, 42);
  const ProjectionStore built(r, ChainSchema(8));
  YannakakisExecutor executor(built);
  executor.Reduce(/*deadline=*/nullptr, /*num_threads=*/1, /*sink=*/nullptr);
  const ProjectionStore reduced(executor.ReducedProjections(),
                                built.original_cells(), /*canonical=*/true);

  const FileGuard file(TempPath("canonical"));
  CHECK(store::Writer().Write(reduced, file.path).ok());

  ProjectionStore loaded(std::vector<StoredProjection>(), 0);
  CHECK(store::LoadProjectionStore(file.path, &loaded).ok());
  CHECK(loaded.canonical());
  CheckStoresIdentical(loaded, reduced);
}

TEST_CASE(NurseryStoreRoundTripsByteIdentical) {
  // The paper's use-case dataset at full scale: 12,960 rows x 9 attrs
  // through the same chain decomposition the serve fixtures use.
  const Relation r = NurseryDataset();
  const ProjectionStore built(r, ChainSchema(9));
  const FileGuard file(TempPath("nursery"));
  CHECK(store::Writer().Write(built, file.path).ok());
  ProjectionStore loaded(std::vector<StoredProjection>(), 0);
  CHECK(store::LoadProjectionStore(file.path, &loaded).ok());
  CHECK(!loaded.canonical());
  CheckStoresIdentical(loaded, built);
}

TEST_CASE(EmptyAndZeroRowStoresRoundTrip) {
  // Zero projections at all.
  {
    const FileGuard file(TempPath("empty"));
    const ProjectionStore empty(std::vector<StoredProjection>(), 0);
    CHECK(store::Writer().Write(empty, file.path).ok());
    ProjectionStore loaded(std::vector<StoredProjection>(), 99);
    CHECK(store::LoadProjectionStore(file.path, &loaded).ok());
    CHECK_EQ(loaded.NumProjections(), size_t{0});
    CHECK_EQ(loaded.original_cells(), size_t{0});
  }
  // A zero-row relation: projections exist but carry no rows.
  {
    const FileGuard file(TempPath("zerorow"));
    StoredProjection p;
    p.attrs = AttrSet(0b011);
    p.columns = {0, 1};
    p.codes.resize(2);
    p.domains = {4, 5};
    StoredProjection q;
    q.attrs = AttrSet(0b110);
    q.columns = {1, 2};
    q.codes.resize(2);
    q.domains = {5, 6};
    const ProjectionStore zero({p, q}, /*original_cells=*/30);
    CHECK(store::Writer().Write(zero, file.path).ok());
    ProjectionStore loaded(std::vector<StoredProjection>(), 0);
    CHECK(store::LoadProjectionStore(file.path, &loaded).ok());
    CheckStoresIdentical(loaded, zero);
  }
}

TEST_CASE(ColumnSpanIsZeroCopyIntoTheMapping) {
  const Relation r = MakeRelation(6, 7);
  const ProjectionStore built(r, ChainSchema(6));
  const FileGuard file(TempPath("span"));
  CHECK(store::Writer().Write(built, file.path).ok());

  store::MappedStore mapped;
  CHECK(store::MappedStore::Open(file.path, &mapped).ok());
  for (size_t v = 0; v < built.NumProjections(); ++v) {
    const StoredProjection& p = built.projections()[v];
    for (size_t c = 0; c < p.columns.size(); ++c) {
      const uint32_t* data = nullptr;
      size_t rows = 0;
      CHECK(mapped.ColumnSpan(v, c, &data, &rows).ok());
      CHECK_EQ(rows, p.NumRows());
      for (size_t i = 0; i < rows; ++i) CHECK_EQ(data[i], p.codes[c][i]);
    }
  }
  // Caller errors are kInvalidArgument (the file is fine), not kDataLoss.
  const uint32_t* data = nullptr;
  size_t rows = 0;
  const Status bad =
      mapped.ColumnSpan(built.NumProjections(), 0, &data, &rows);
  CHECK(!bad.ok());
  CHECK(bad.code() == Status::Code::kInvalidArgument);
}

// ---- corruption injection (every failure must be kDataLoss, ASan-clean) ---

// Writes a small valid store and returns its bytes.
std::string ValidStoreBytes(const std::string& path) {
  const Relation r = MakeRelation(6, 13);
  const ProjectionStore built(r, ChainSchema(6));
  store::StoreMeta meta;
  meta.column_names = DefaultColumnNames(r.NumCols());
  CHECK(store::Writer(meta).Write(built, path).ok());
  return ReadFileBytes(path);
}

bool OpenIsDataLoss(const std::string& path) {
  store::MappedStore mapped;
  const Status s = store::MappedStore::Open(path, &mapped);
  return !s.ok() && s.code() == Status::Code::kDataLoss && !mapped.is_open();
}

TEST_CASE(TruncatedFileIsDataLoss) {
  const FileGuard file(TempPath("trunc"));
  const std::string bytes = ValidStoreBytes(file.path);
  // Every truncation point: shorter than the header, mid-table, mid-data.
  for (size_t keep : {size_t{0}, size_t{10}, sizeof(store::Header),
                      sizeof(store::Header) + 40, bytes.size() - 1}) {
    WriteFileBytes(file.path, bytes.substr(0, keep));
    CHECK(OpenIsDataLoss(file.path));
  }
  // And appending junk (file_bytes mismatch) is equally fatal.
  WriteFileBytes(file.path, bytes + "x");
  CHECK(OpenIsDataLoss(file.path));
}

TEST_CASE(FlippedMagicIsDataLoss) {
  const FileGuard file(TempPath("magic"));
  std::string bytes = ValidStoreBytes(file.path);
  bytes[3] = static_cast<char>(bytes[3] ^ 0x40);
  WriteFileBytes(file.path, bytes);
  CHECK(OpenIsDataLoss(file.path));
}

TEST_CASE(BadSectionCrcIsDataLossOnAccessNotOpen) {
  const FileGuard file(TempPath("crc"));
  std::string bytes = ValidStoreBytes(file.path);

  // Find the kMeta payload offset from a clean open, then flip one bit in
  // it. The header and table are untouched, so Open (lazy payload CRCs)
  // still succeeds; the first accessor that needs the section must fail.
  uint64_t meta_offset = 0;
  {
    store::MappedStore mapped;
    CHECK(store::MappedStore::Open(file.path, &mapped).ok());
    for (const store::SectionEntry& e : mapped.sections()) {
      if (e.kind == store::kMeta) meta_offset = e.offset;
    }
    CHECK(meta_offset != 0u);
  }
  bytes[meta_offset] = static_cast<char>(bytes[meta_offset] ^ 0x01);
  WriteFileBytes(file.path, bytes);

  store::MappedStore mapped;
  CHECK(store::MappedStore::Open(file.path, &mapped).ok());
  store::MetaSection ms;
  const Status s = mapped.ReadMeta(&ms);
  CHECK(!s.ok());
  CHECK(s.code() == Status::Code::kDataLoss);
  // The poisoned section also fails the full load (and keeps failing on
  // retry — invalid verdicts are never cached as valid).
  ProjectionStore loaded(std::vector<StoredProjection>(), 0);
  const Status load = mapped.ToProjectionStore(&loaded);
  CHECK(!load.ok());
  CHECK(load.code() == Status::Code::kDataLoss);
  CHECK(mapped.ReadMeta(&ms).code() == Status::Code::kDataLoss);
}

TEST_CASE(OutOfBoundsSectionOffsetIsDataLoss) {
  const FileGuard file(TempPath("oob"));
  const std::string bytes = ValidStoreBytes(file.path);

  // Patch the FIRST table entry's offset (u64 at entry offset 8) to point
  // past the end of the file, keeping it 8-aligned so the bounds check —
  // not the alignment check — is what fires. The fingerprint covers
  // kind/length/crc, not offsets: bounds validation at Open is the only
  // line of defense, which is exactly what this pins.
  std::string patched = bytes;
  const size_t entry0 = sizeof(store::Header);
  const uint64_t evil = store::AlignUp(bytes.size() + 1024);
  for (int i = 0; i < 8; ++i) {
    patched[entry0 + 8 + static_cast<size_t>(i)] =
        static_cast<char>((evil >> (8 * i)) & 0xFF);
  }
  WriteFileBytes(file.path, patched);
  CHECK(OpenIsDataLoss(file.path));

  // A misaligned offset is caught too.
  patched = bytes;
  patched[entry0 + 8] = static_cast<char>(patched[entry0 + 8] | 0x01);
  WriteFileBytes(file.path, patched);
  CHECK(OpenIsDataLoss(file.path));
}

// Status, row count and rows of a fixed query set served from `store`:
// every single attribute, the whole universe, and the universe under an
// equality selection on each attribute.
std::vector<std::string> SweepAnswers(ProjectionStore store) {
  const serve::QueryService service(std::move(store));
  const AttrSet universe = service.snapshot()->planner().universe();
  std::vector<serve::Query> queries(1);
  queries[0].attrs = universe;
  for (int a : universe.ToVector()) {
    serve::Query single;
    single.attrs = AttrSet::Single(a);
    queries.push_back(single);
    serve::Query selected;
    selected.attrs = universe;
    selected.selections.push_back(serve::Selection::Eq(a, 1));
    queries.push_back(selected);
  }
  std::vector<std::string> answers;
  for (const serve::Query& q : queries) {
    const serve::QueryResult res = service.Execute(q);
    std::string answer = std::to_string(static_cast<int>(res.status.code())) +
                         " " + std::to_string(res.rows);
    for (const std::vector<uint32_t>& row : res.tuples) {
      for (uint32_t code : row) answer += " " + std::to_string(code);
      answer += ";";
    }
    answers.push_back(std::move(answer));
  }
  return answers;
}

TEST_CASE(EveryByteFlipAndTruncationIsDataLossOrHarmless) {
  // A store of a few KB with every section populated.
  const Relation r = MakeRelation(6, 29, /*max_rows=*/96);
  const Schema schema = ChainSchema(6);
  const ProjectionStore built(r, schema);
  store::StoreMeta meta;
  meta.column_names = DefaultColumnNames(r.NumCols());
  meta.schema = schema;
  meta.mvds.emplace_back(AttrSet(0b001000), AttrSet(0b000111),
                         AttrSet(0b110000));
  const FileGuard file(TempPath("sweep"));
  CHECK(store::Writer(meta).Write(built, file.path).ok());
  const std::string bytes = ReadFileBytes(file.path);
  CHECK(bytes.size() > 1024 && bytes.size() < 8192);
  const std::vector<std::string> want = SweepAnswers(built);

  size_t data_loss = 0;
  size_t loaded = 0;
  size_t wrong = 0;  // any other status, or a load with different answers
  const auto try_load = [&](const std::string& image) {
    WriteFileBytes(file.path, image);
    store::MappedStore mapped;
    Status status = store::MappedStore::Open(file.path, &mapped);
    ProjectionStore got(std::vector<StoredProjection>(), 0);
    if (status.ok()) status = mapped.ToProjectionStore(&got);
    if (!status.ok()) {
      ++(status.code() == Status::Code::kDataLoss ? data_loss : wrong);
      return;
    }
    ++loaded;
    // The sections ToProjectionStore never reads still validate cleanly.
    Schema schema_back;
    JoinTree tree;
    std::vector<Mvd> mvds;
    std::vector<std::string> names;
    for (const Status& s :
         {mapped.ReadSchema(&schema_back), mapped.ReadJoinTree(&tree),
          mapped.ReadMvds(&mvds), mapped.ReadColumnNames(&names)}) {
      if (!s.ok() && s.code() != Status::Code::kDataLoss) ++wrong;
    }
    if (SweepAnswers(std::move(got)) != want) ++wrong;
  };
  // Each byte flipped twice: its lowest bit (a code stays inside its
  // domain, so only the checksums can tell) and all eight bits.
  for (size_t i = 0; i < bytes.size(); ++i) {
    for (int mask : {0x01, 0xFF}) {
      std::string image = bytes;
      image[i] = static_cast<char>(image[i] ^ mask);
      try_load(image);
    }
  }
  for (size_t len = 0; len < bytes.size(); ++len) {
    try_load(bytes.substr(0, len));
  }
  CHECK_EQ(wrong, size_t{0});
  CHECK_EQ(data_loss + loaded, 3 * bytes.size());
  // Truncation alone accounts for bytes.size() DataLoss verdicts; the
  // checksums catch every flip outside padding and unread sections.
  CHECK(data_loss > 2 * bytes.size());
  std::printf("  sweep over %zu bytes: %zu DataLoss, %zu harmless loads\n",
              bytes.size(), data_loss, loaded);
}

// Rewrites the first projection's row count in a store image and
// re-stamps the section CRC, the fingerprint and the header CRC, so the
// file passes every checksum and only the loader's own checks remain.
std::string WithFirstProjectionRows(std::string bytes, uint64_t num_rows) {
  store::Header header;
  std::memcpy(&header, bytes.data(), sizeof(header));
  std::vector<store::SectionEntry> entries(header.section_count);
  std::memcpy(entries.data(), bytes.data() + sizeof(header),
              entries.size() * sizeof(store::SectionEntry));
  for (store::SectionEntry& e : entries) {
    if (e.kind != store::kProjTable) continue;
    store::ProjEntry entry;
    std::memcpy(&entry, bytes.data() + e.offset, sizeof(entry));
    entry.num_rows = num_rows;
    std::memcpy(&bytes[e.offset], &entry, sizeof(entry));
    e.crc = store::Crc32(bytes.data() + e.offset, e.length);
  }
  std::memcpy(&bytes[sizeof(header)], entries.data(),
              entries.size() * sizeof(store::SectionEntry));
  header.fingerprint =
      store::Fingerprint(header.version, entries.data(), entries.size());
  header.header_crc = store::HeaderCrc(header);
  std::memcpy(&bytes[0], &header, sizeof(header));
  return bytes;
}

TEST_CASE(ChecksummedRowCountBeyondTheDataIsDataLoss) {
  // A row count past the column data is caught by the loader's bounds
  // checks even when every checksum agrees, before the count sizes any
  // allocation (ASan would flag a 2^40-row one).
  const FileGuard file(TempPath("rows"));
  const std::string bytes = ValidStoreBytes(file.path);
  for (uint64_t num_rows :
       {static_cast<uint64_t>(bytes.size()), uint64_t{1} << 40}) {
    WriteFileBytes(file.path, WithFirstProjectionRows(bytes, num_rows));
    store::MappedStore mapped;
    CHECK(store::MappedStore::Open(file.path, &mapped).ok());
    ProjectionStore loaded(std::vector<StoredProjection>(), 0);
    CHECK(mapped.ToProjectionStore(&loaded).code() ==
          Status::Code::kDataLoss);
  }
}

TEST_CASE(MissingFileIsNotADataLossCrash) {
  store::MappedStore mapped;
  const Status s =
      store::MappedStore::Open(TempPath("does_not_exist"), &mapped);
  CHECK(!s.ok());
  CHECK(!mapped.is_open());
  // Accessors on a never-opened store reject cleanly as caller error.
  store::MetaSection ms;
  CHECK(!mapped.ReadMeta(&ms).ok());
}

TEST_CASE(ObsCountersTrackWriteOpenAndLoad) {
  obs::Sink sink;
  const Relation r = MakeRelation(6, 21);
  const ProjectionStore built(r, ChainSchema(6));
  const FileGuard file(TempPath("obs"));
  CHECK(store::Writer().Write(built, file.path, &sink).ok());
  ProjectionStore loaded(std::vector<StoredProjection>(), 0);
  CHECK(store::LoadProjectionStore(file.path, &loaded, &sink).ok());

  const obs::MetricsRegistry metrics = sink.SnapshotMetrics();
  CHECK_EQ(metrics.counter("store.writes"), 1u);
  CHECK_EQ(metrics.counter("store.opens"), 1u);
  CHECK_EQ(metrics.counter("store.bytes_written"),
           metrics.counter("store.bytes_mapped"));
  CHECK_EQ(metrics.counter("store.load.projections"),
           static_cast<uint64_t>(built.NumProjections()));
  CHECK_EQ(metrics.counter("store.load.rows"),
           static_cast<uint64_t>(built.TotalRows()));
}

}  // namespace
}  // namespace maimon

TEST_MAIN()
