// Golden bytes of every record codec built on field lists: the eight wire
// messages, an ENGINE section payload and a K=2 shard manifest, each
// encoded from fixed field values. The hex strings were captured from the
// hand-written codecs the field lists replaced, so a change here moves
// bytes on disk or on the wire, and must bump kSnapshotFormatVersion,
// kShardManifestVersion or kWireVersion. Each golden also decodes back to
// itself.
#include <cstdio>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "net/wire.h"
#include "persist/binary_io.h"
#include "persist/snapshot_fields.h"
#include "persist/snapshot_io.h"
#include "shard/sharded_persist.h"

namespace fuser {
namespace {

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
  std::ifstream in(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  EXPECT_EQ(Hex(bytes),
      "465553524d414e49010000000600000002000000efcdab896745230105000000"
      "0000000003000000000000000300000000000000000000000200000004000000"
      "02000000000000000100000003000000b87dd58a78480b62");

  auto read = ReadShardManifest(path);
  ASSERT_TRUE(read.ok()) << read.status();
  EXPECT_EQ(read->sharding.hash_seed, manifest.sharding.hash_seed);
  EXPECT_EQ(read->local_to_global, manifest.local_to_global);
}

}  // namespace
}  // namespace fuser
