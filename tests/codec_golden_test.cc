// Golden bytes of every record codec built on field lists: the eight wire
// messages, an ENGINE section payload and a K=2 shard manifest, each
// encoded from fixed field values. The hex strings were captured from the
// hand-written codecs the field lists replaced, so a change here moves
// bytes on disk or on the wire, and must bump kSnapshotFormatVersion,
// kShardManifestVersion or kWireVersion. Each golden also decodes back to
// itself. A last case pins the DATASET section a small corpus saves to,
// so the Dataset build path (interning order, arena offsets, output bits,
// provider lists) cannot move a byte either.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gtest/gtest.h"
#include "model/dataset.h"
#include "net/wire.h"
#include "persist/binary_io.h"
#include "persist/snapshot_fields.h"
#include "persist/snapshot_io.h"
#include "shard/sharded_persist.h"

namespace fuser {
namespace {

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

std::string Hex(const std::string& bytes) {
  std::string hex;
  char byte[3];
  for (unsigned char c : bytes) {
    std::snprintf(byte, sizeof(byte), "%02x", c);
    hex += byte;
  }
  return hex;
}

/// Encodes `message` and compares it with `golden`, then decodes the bytes
/// and encodes them again.
template <class M>
void ExpectMessageGolden(const M& message, const std::string& golden) {
  const std::string encoded = message.Encode();
  EXPECT_EQ(Hex(encoded), golden);
  M decoded;
  ASSERT_TRUE(decoded.Decode(encoded).ok());
  EXPECT_EQ(Hex(decoded.Encode()), golden);
}

TEST(CodecGoldenTest, WireMessages) {
  ExpectMessageGolden(
      net::ScoreRequest{0x0102030405060708ULL, "precrec-corr", 42},
      "08070605040302010c00000000000000707265637265632d636f72722a000000");
  ExpectMessageGolden(
      net::ScoreBatchRequest{7, "elastic-2", {1, 2, 0xFFFFFFFEu}},
      "07000000000000000900000000000000656c61737469632d3203000000000000"
      "000100000002000000feffffff");
  ExpectMessageGolden(
      net::ScoreObservationRequest{9, "precrec", {0, 3, 5}, {0, 1, 3, 5}},
      "0900000000000000070000000000000070726563726563030000000000000000"
      "0000000300000005000000040000000000000000000000010000000300000005"
      "000000");
  ExpectMessageGolden(net::StatsRequest{11},
      "0b00000000000000");
  ExpectMessageGolden(net::ScoreReply{12, 3, 0.625},
      "0c000000000000000300000000000000000000000000e43f");
  ExpectMessageGolden(net::ScoreBatchReply{13, 4, {0.25, -0.0, 1.0}},
      "0d0000000000000004000000000000000300000000000000000000000000d03f"
      "0000000000000080000000000000f03f");
  ExpectMessageGolden(net::StatsReply{14, 5, 6, 7, 8, 2, 99},
      "0e00000000000000050000000000000006000000000000000700000000000000"
      "080000000000000002000000000000006300000000000000");
  ExpectMessageGolden(net::ErrorReply{15, 2, true, "no such method"},
      "0f0000000000000002000000010e000000000000006e6f2073756368206d6574"
      "686f64");
}

TEST(CodecGoldenTest, EngineSectionPayload) {
  persist::EngineSection section;
  section.dataset_version = 3;
  section.dataset_fingerprint = 0x1122334455667788ULL;
  section.num_triples = 70;
  section.num_sources = 2;
  section.num_domains = 1;
  EngineOptions& o = section.options;
  o.model.alpha = 0.35;
  o.model.smoothing = 0.25;
  o.model.use_scopes = true;
  o.model.enable_clustering = true;
  o.model.clustering.correlation_threshold = 0.125;
  o.model.clustering.min_support = 17;
  o.model.clustering.max_cluster_size = 6;
  o.decision_threshold = 0.625;
  o.three_estimates.iterations = 21;
  o.three_estimates.initial_error = 0.375;
  o.three_estimates.initial_difficulty = 0.0625;
  o.three_estimates.normalize = false;
  o.three_estimates.use_scopes = true;
  o.cosine.iterations = 13;
  o.cosine.initial_trust = 0.75;
  o.cosine.damping = 0.5;
  o.cosine.use_scopes = true;
  o.ltm.alpha01 = 1.5;
  o.ltm.alpha00 = 2.5;
  o.ltm.alpha11 = 3.5;
  o.ltm.alpha10 = 4.5;
  o.ltm.beta = 5.5;
  o.ltm.burn_in = 101;
  o.ltm.samples = 202;
  o.ltm.thin = 3;
  o.ltm.seed = 0xA5A5A5A5DEADBEEFULL;
  o.ltm.use_scopes = true;
  o.corr.calibrated_likelihood = false;
  section.train_mask = DynamicBitset(70);
  for (size_t t : {0, 5, 64, 69}) section.train_mask.Set(t);
  section.quality.resize(2);
  section.quality[0] = {0.8, 0.5, 0.125, 40, 32, 64};
  section.quality[1] = {0.25, 0.75, 1.0, 1, 0, 70};
  const std::string golden =
      "0300000000000000887766554433221146000000000000000200000000000000"
      "0100000000000000666666666666d63f000000000000d03f0101000000000000"
      "c03f11000000000000000600000000000000000000000000e43f150000000000"
      "00000000d83f000000000000b03f00010d000000000000000000e83f00000000"
      "0000e03f01000000000000f83f00000000000004400000000000000c40000000"
      "0000001240000000000000164065000000ca00000003000000efbeaddea5a5a5"
      "a501004600000000000000210000000000000021000000000000000200000000"
      "0000009a9999999999e93f000000000000e03f000000000000c03f2800000000"
      "00000020000000000000004000000000000000000000000000d03f0000000000"
      "00e83f000000000000f03f010000000000000000000000000000004600000000"
      "000000";
  const std::string encoded = persist::EncodeFields(section);
  EXPECT_EQ(Hex(encoded), golden);

  persist::EngineSection decoded;
  persist::ByteSource source(encoded.data(), encoded.size());
  ASSERT_TRUE(persist::DecodeFields(&source, &decoded).ok());
  EXPECT_TRUE(source.exhausted());
  EXPECT_EQ(Hex(persist::EncodeFields(decoded)), golden);
}

TEST(CodecGoldenTest, TwoShardManifest) {
  ShardManifest manifest;
  manifest.snapshot_format_version = kSnapshotFormatVersion;
  manifest.sharding.num_shards = 2;
  manifest.sharding.hash_seed = 0x0123456789ABCDEFULL;
  manifest.num_triples = 5;
  manifest.num_sources = 3;
  manifest.local_to_global = {{0, 2, 4}, {1, 3}};
  const std::string path = testing::TempDir() + "/golden_manifest";
  ASSERT_TRUE(WriteShardManifest(path, manifest).ok());
  EXPECT_EQ(Hex(ReadFile(path)),
      "465553524d414e49010000000600000002000000efcdab896745230105000000"
      "0000000003000000000000000300000000000000000000000200000004000000"
      "02000000000000000100000003000000b87dd58a78480b62");

  auto read = ReadShardManifest(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->sharding.hash_seed, manifest.sharding.hash_seed);
  EXPECT_EQ(read->local_to_global, manifest.local_to_global);
}

/// A small corpus built through the construction calls: strings repeated
/// across fields and triples, a re-added triple (which keeps its first
/// domain), a duplicate Provide, an empty object and the default domain,
/// and a source registered after triples exist.
Dataset GoldenCorpus() {
  Dataset d;
  const SourceId a = d.AddSource("site-a");
  const SourceId b = d.AddSource("site-b");
  const SourceId c = d.AddSource("site-c");
  const TripleId t0 = d.AddTriple({"Obama", "profession", "president"},
                                  "people");
  const TripleId t1 = d.AddTriple({"Obama", "born", "Hawaii"}, "people");
  const TripleId t2 = d.AddTriple({"Hawaii", "state-of", "USA"}, "places");
  const TripleId t3 = d.AddTriple({"Obama", "spouse", ""});
  EXPECT_EQ(d.AddTriple({"Obama", "born", "Hawaii"}, "places"), t1);
  d.Provide(a, t0);
  d.Provide(a, t1);
  d.Provide(b, t1);
  d.Provide(b, t1);
  d.Provide(b, t3);
  d.Provide(c, t2);
  const SourceId late = d.AddSource("site-late");
  const TripleId t4 = d.AddTriple({"Michelle", "profession", "lawyer"},
                                  "people");
  const TripleId t5 = d.AddTriple({"USA", "capital", "Washington"}, "places");
  d.Provide(late, t0);
  d.Provide(late, t3);
  d.Provide(late, t5);
  d.Provide(a, t4);
  d.Provide(c, t5);
  d.Provide(a, t2);
  d.SetLabel(t0, true);
  d.SetLabel(t1, true);
  d.SetLabel(t3, false);
  d.SetLabel(t4, false);
  d.SetLabel(t5, true);
  EXPECT_TRUE(d.Finalize().ok());
  return d;
}

TEST(CodecGoldenTest, DatasetSection) {
  Dataset dataset = GoldenCorpus();
  FusionEngine engine(&dataset, EngineOptions{});
  ASSERT_TRUE(engine.Prepare(dataset.labeled_mask()).ok());
  const std::string path = testing::TempDir() + "/golden_dataset.snap";
  ASSERT_TRUE(engine.SaveSnapshot(path).ok());
  const std::string bytes = ReadFile(path);

  // The DATASET section (id 2) from the section table, less the zeros that
  // align its start to 64 bytes in the file.
  uint32_t count = 0;
  std::memcpy(&count, bytes.data() + 12, sizeof(count));
  std::string section;
  for (uint32_t i = 0; i < count; ++i) {
    const char* entry = bytes.data() + 16 + i * 32;
    uint32_t id = 0;
    uint64_t offset = 0, size = 0;
    std::memcpy(&id, entry, sizeof(id));
    std::memcpy(&offset, entry + 8, sizeof(offset));
    std::memcpy(&size, entry + 16, sizeof(size));
    if (id != 2) continue;
    const size_t pad0 = (64 - offset % 64) % 64;
    section = bytes.substr(offset + pad0, size - pad0);
  }
  ASSERT_FALSE(section.empty()) << "no DATASET section";

  // Nine u64 scalars, the source and domain name refs and the meta
  // checksum, padded to 64 bytes, then the arena image. The image is a
  // whole 64 KiB chunk; past the string payload it must be zeros, and the
  // golden leaves those zeros out. The meta checksum also covers the
  // alignment zeros, so it moves if an earlier section changes size.
  const StringArena& arena = dataset.string_arena();
  const size_t meta_end =
      8 * (9 + dataset.num_sources() + dataset.num_domains() + 1);
  const size_t arena_off = (meta_end + 63) / 64 * 64;
  const size_t payload_end = arena_off + arena.total_bytes();
  const size_t image_end = arena_off + arena.image_bytes();
  ASSERT_LE(image_end, section.size());
  EXPECT_EQ(section.find_first_not_of('\0', payload_end), image_end);
  const std::string golden_head =
      "0100000000000000040000000000000003000000000000000600000000000000"
      "000001000000000000000100000000000b000000000000000800000000000000"
      "0600000000000000060000000000000006000006000000000600000c00000000"
      "09000051000000000600002a0000000006000045000000000000000000000000"
      "9db0018a2286d07e000000000000000000000000000000000000000000000000"
      "0000000000000000000000000000000000000000000000000000000000000000"
      "736974652d61736974652d62736974652d634f62616d6170726f66657373696f"
      "6e707265736964656e7470656f706c65626f726e48617761696973746174652d"
      "6f66555341706c6163657373706f757365736974652d6c6174654d696368656c"
      "6c656c61777965726361706974616c57617368696e67746f6e";
  const std::string golden_tail =
      "0500001200000000050000120000000006000034000000000500001200000000"
      "0800005a0000000003000042000000000a000017000000000400003000000000"
      "0800003a000000000600004b000000000a000017000000000700006800000000"
      "0900002100000000060000340000000003000042000000000000000000000000"
      "06000062000000000a00006f0000000000000000000000000200000000000000"
      "0400000000000000060000000000000008000000000000000900000000000000"
      "0000000000000000030000000000000006000000000000000000000000000000"
      "0300000000000000050000000000000017000000000000000a00000000000000"
      "2400000000000000290000000000000003000000000000000500000000000000"
      "0200000000000000070000000000000023000000000000003b00000000000000"
      "0000000000000000010000000200000000000000010000000200000002000000"
      "0200000002000000010000000200000000000000030000000000000001000000"
      "0000000002000000010000000300000000000000020000000300000003000000"
      "0300000002000000000000000100000003000000000000000200000003000000"
      "0100000003000000030000000200000001000000000000000100000004000000"
      "020000000500000003000000020200010102";
  EXPECT_EQ(Hex(section.substr(0, payload_end)), golden_head);
  EXPECT_EQ(Hex(section.substr(image_end)), golden_tail);
}

}  // namespace
}  // namespace fuser
