#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <filesystem>

#include "common/rng.hpp"
#include "format/codec.hpp"
#include "format/crc32.hpp"
#include "format/dh5.hpp"
#include "format/pipeline.hpp"
#include "format/types.hpp"

namespace dmr::format {
namespace {

std::vector<std::byte> to_bytes(const std::string& s) {
  std::vector<std::byte> v(s.size());
  std::memcpy(v.data(), s.data(), s.size());
  return v;
}

std::vector<std::byte> float_bytes(const std::vector<float>& f) {
  std::vector<std::byte> v(f.size() * 4);
  std::memcpy(v.data(), f.data(), v.size());
  return v;
}

/// A smooth 3-D field like CM1's temperature/wind arrays.
std::vector<float> smooth_field(std::size_t nx, std::size_t ny,
                                std::size_t nz) {
  std::vector<float> f;
  f.reserve(nx * ny * nz);
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      for (std::size_t k = 0; k < nz; ++k) {
        f.push_back(300.0f +
                    10.0f * std::sin(0.05f * i) * std::cos(0.07f * j) +
                    0.2f * static_cast<float>(k));
      }
    }
  }
  return f;
}

/// smooth_field plus seeded turbulence inside a storm region, the rest
/// of the domain quiescent (like CM1's environment at rest). The
/// mantissa noise is what keeps lossless ratios near the paper's 187%
/// rather than 600%+. EXPERIMENTS.md's fig7 row cites the two ratios
/// the Pipeline ratio tests pin on one 44x44x50 block of it.
std::vector<float> turbulent_cm1_field(std::size_t nx, std::size_t ny,
                                       std::size_t nz) {
  Rng rng(1234);
  std::vector<float> f = smooth_field(nx, ny, nz);
  std::size_t n = 0;
  for (std::size_t i = 0; i < nx; ++i) {
    for (std::size_t j = 0; j < ny; ++j) {
      for (std::size_t k = 0; k < nz; ++k, ++n) {
        if (i > nx / 6 && j > ny / 8) {
          f[n] += 0.2f * static_cast<float>(rng.normal(0, 1));
        }
      }
    }
  }
  return f;
}

std::vector<std::byte> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

// ------------------------------------------------------------------ types

TEST(Types, Sizes) {
  EXPECT_EQ(datatype_size(DataType::kFloat32), 4u);
  EXPECT_EQ(datatype_size(DataType::kFloat64), 8u);
  EXPECT_EQ(datatype_size(DataType::kInt8), 1u);
  EXPECT_EQ(datatype_size(DataType::kUInt16), 2u);
}

TEST(Types, ParseRoundTrip) {
  for (int i = 0; i <= static_cast<int>(DataType::kFloat64); ++i) {
    const DataType t = static_cast<DataType>(i);
    DataType parsed;
    ASSERT_TRUE(parse_datatype(datatype_name(t), parsed));
    EXPECT_EQ(parsed, t);
  }
}

TEST(Types, FortranAliases) {
  DataType t;
  ASSERT_TRUE(parse_datatype("real", t));
  EXPECT_EQ(t, DataType::kFloat32);
  ASSERT_TRUE(parse_datatype("integer", t));
  EXPECT_EQ(t, DataType::kInt32);
  EXPECT_FALSE(parse_datatype("quaternion", t));
}

TEST(Types, LayoutSizes) {
  Layout l{DataType::kFloat32, {64, 16, 2}};
  EXPECT_EQ(l.element_count(), 2048u);
  EXPECT_EQ(l.byte_size(), 8192u);
  Layout empty;
  EXPECT_EQ(empty.element_count(), 0u);
}

// ------------------------------------------------------------------ crc32

TEST(Crc32, KnownVector) {
  // CRC-32 of "123456789" is 0xCBF43926 (IEEE test vector).
  auto data = to_bytes("123456789");
  EXPECT_EQ(crc32(data), 0xCBF43926u);
}

TEST(Crc32, EmptyIsZero) { EXPECT_EQ(crc32({}), 0u); }

TEST(Crc32, Incremental) {
  auto ab = to_bytes("hello world");
  auto a = to_bytes("hello ");
  auto b = to_bytes("world");
  EXPECT_EQ(crc32(ab), crc32(b, crc32(a)));
}

TEST(Crc32, DetectsBitFlip) {
  auto data = random_bytes(1024, 7);
  const auto before = crc32(data);
  data[512] ^= std::byte{0x01};
  EXPECT_NE(crc32(data), before);
}

// ----------------------------------------------------------------- codecs

class CodecRoundTrip : public ::testing::TestWithParam<CodecId> {};

TEST_P(CodecRoundTrip, LosslessOnAssortedInputs) {
  const Codec* c = codec_for(GetParam());
  ASSERT_NE(c, nullptr);
  if (!c->lossless()) GTEST_SKIP() << "lossy codec";
  const std::vector<std::vector<std::byte>> inputs = {
      {},                                       // empty
      to_bytes("a"),                            // single byte
      to_bytes("aaaaaaaaaaaaaaaaaaaaaaa"),      // long run
      to_bytes("abcabcabcabcabcabcabcabc"),     // periodic
      random_bytes(1, 1),
      random_bytes(257, 2),                     // crosses run-cap
      random_bytes(10000, 3),                   // incompressible
      float_bytes(smooth_field(16, 16, 8)),     // realistic field
  };
  for (const auto& in : inputs) {
    auto enc = c->encode(in);
    auto dec = c->decode(enc, in.size());
    ASSERT_TRUE(dec.is_ok()) << c->name() << ": " << dec.status().to_string();
    EXPECT_EQ(dec.value(), in) << c->name();
  }
}

INSTANTIATE_TEST_SUITE_P(AllLossless, CodecRoundTrip,
                         ::testing::Values(CodecId::kIdentity, CodecId::kRle,
                                           CodecId::kLz, CodecId::kXorDelta,
                                           CodecId::kHuffman),
                         [](const auto& param_info) {
                           return std::string(
                               codec_for(param_info.param)->name() == "xor-delta"
                                   ? "xor_delta"
                                   : codec_for(param_info.param)->name());
                         });

TEST(Rle, CompressesRuns) {
  std::vector<std::byte> zeros(10000, std::byte{0});
  const Codec* rle = codec_for(CodecId::kRle);
  auto enc = rle->encode(zeros);
  EXPECT_LT(enc.size(), zeros.size() / 50);
}

TEST(Rle, RejectsCorruptStream) {
  const Codec* rle = codec_for(CodecId::kRle);
  std::vector<std::byte> bogus = {std::byte{200}};  // repeat without operand
  EXPECT_FALSE(rle->decode(bogus, 100).is_ok());
}

TEST(Lz, CompressesPeriodicData) {
  std::string s;
  for (int i = 0; i < 1000; ++i) s += "thequickbrownfox";
  const Codec* lz = codec_for(CodecId::kLz);
  auto in = to_bytes(s);
  auto enc = lz->encode(in);
  EXPECT_LT(enc.size(), in.size() / 10);
  auto dec = lz->decode(enc, in.size());
  ASSERT_TRUE(dec.is_ok());
  EXPECT_EQ(dec.value(), in);
}

TEST(Lz, RandomDataExpandsSlightly) {
  auto in = random_bytes(100000, 11);
  const Codec* lz = codec_for(CodecId::kLz);
  auto enc = lz->encode(in);
  EXPECT_LT(enc.size(), in.size() * 102 / 100);  // <= ~1% expansion
}

TEST(Lz, RejectsBadDistance) {
  const Codec* lz = codec_for(CodecId::kLz);
  // Match of length 4 at distance 9 with empty history.
  std::vector<std::byte> bogus = {std::byte{0x80}, std::byte{9},
                                  std::byte{0}};
  EXPECT_FALSE(lz->decode(bogus, 4).is_ok());
}

TEST(Lz, OverlappingMatchDecodes) {
  // "abab..." encoded with an overlapping match (dist 2 < len).
  std::string s = "ab";
  for (int i = 0; i < 100; ++i) s += "ab";
  const Codec* lz = codec_for(CodecId::kLz);
  auto in = to_bytes(s);
  auto enc = lz->encode(in);
  auto dec = lz->decode(enc, in.size());
  ASSERT_TRUE(dec.is_ok());
  EXPECT_EQ(dec.value(), in);
}

TEST(Float16, HalvesSize) {
  auto in = float_bytes(smooth_field(8, 8, 8));
  const Codec* f16 = codec_for(CodecId::kFloat16);
  auto enc = f16->encode(in);
  EXPECT_EQ(enc.size(), in.size() / 2);
}

TEST(Float16, BoundedRelativeError) {
  auto field = smooth_field(8, 8, 8);
  auto in = float_bytes(field);
  const Codec* f16 = codec_for(CodecId::kFloat16);
  auto enc = f16->encode(in);
  auto dec = f16->decode(enc, in.size());
  ASSERT_TRUE(dec.is_ok());
  std::vector<float> out(field.size());
  std::memcpy(out.data(), dec.value().data(), dec.value().size());
  for (std::size_t i = 0; i < field.size(); ++i) {
    // binary16 has 10 mantissa bits: relative error <= 2^-11.
    EXPECT_NEAR(out[i], field[i], std::fabs(field[i]) * 0.0005 + 1e-4);
  }
}

TEST(Float16, SpecialValues) {
  const Codec* f16 = codec_for(CodecId::kFloat16);
  std::vector<float> vals = {0.0f, -0.0f, 1.0f, -2.5f, 65504.0f, 1e6f,
                             -1e6f, 1e-8f,
                             std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity()};
  auto enc = f16->encode(float_bytes(vals));
  auto dec = f16->decode(enc, vals.size() * 4);
  ASSERT_TRUE(dec.is_ok());
  std::vector<float> out(vals.size());
  std::memcpy(out.data(), dec.value().data(), dec.value().size());
  EXPECT_EQ(out[0], 0.0f);
  EXPECT_EQ(out[2], 1.0f);
  EXPECT_EQ(out[3], -2.5f);
  EXPECT_EQ(out[4], 65504.0f);         // max finite half
  EXPECT_TRUE(std::isinf(out[5]));     // overflow saturates to inf
  EXPECT_TRUE(std::isinf(out[6]) && out[6] < 0);
  EXPECT_NEAR(out[7], 0.0f, 1e-7);     // underflow to (sub)zero
  EXPECT_TRUE(std::isinf(out[8]));
  EXPECT_TRUE(std::isinf(out[9]) && out[9] < 0);
}

TEST(Float16, NanSurvives) {
  const Codec* f16 = codec_for(CodecId::kFloat16);
  std::vector<float> vals = {std::nanf("")};
  auto enc = f16->encode(float_bytes(vals));
  auto dec = f16->decode(enc, 4);
  ASSERT_TRUE(dec.is_ok());
  float out;
  std::memcpy(&out, dec.value().data(), 4);
  EXPECT_TRUE(std::isnan(out));
}

TEST(Huffman, CompressesSkewedData) {
  // 90% zeros, 10% assorted bytes: entropy ~0.7 bits/byte.
  Rng rng(21);
  std::vector<std::byte> data(100000);
  for (auto& b : data) {
    b = rng.chance(0.9) ? std::byte{0}
                        : static_cast<std::byte>(rng.next_below(16));
  }
  const Codec* h = codec_for(CodecId::kHuffman);
  auto enc = h->encode(data);
  EXPECT_LT(enc.size(), data.size() / 4);
  auto dec = h->decode(enc, data.size());
  ASSERT_TRUE(dec.is_ok());
  EXPECT_EQ(dec.value(), data);
}

TEST(Huffman, SingleSymbolStream) {
  std::vector<std::byte> data(1000, std::byte{0x7F});
  const Codec* h = codec_for(CodecId::kHuffman);
  auto enc = h->encode(data);
  // 128-byte table + 1000 one-bit codes = 128 + 125 bytes.
  EXPECT_EQ(enc.size(), 128u + 125u);
  auto dec = h->decode(enc, data.size());
  ASSERT_TRUE(dec.is_ok());
  EXPECT_EQ(dec.value(), data);
}

TEST(Huffman, RandomDataBoundedOverhead) {
  auto data = random_bytes(65536, 9);
  const Codec* h = codec_for(CodecId::kHuffman);
  auto enc = h->encode(data);
  // Uniform bytes: ~8 bits/symbol + the 128-byte table.
  EXPECT_LT(enc.size(), data.size() + 512);
  auto dec = h->decode(enc, data.size());
  ASSERT_TRUE(dec.is_ok());
  EXPECT_EQ(dec.value(), data);
}

TEST(Huffman, RejectsOversubscribedCode) {
  // Table claiming every symbol has a 1-bit code: Kraft sum 128 >> 1.
  std::vector<std::byte> bogus(200, std::byte{0x11});
  const Codec* h = codec_for(CodecId::kHuffman);
  EXPECT_FALSE(h->decode(bogus, 100).is_ok());
}

TEST(Huffman, RejectsExhaustedBitstream) {
  std::vector<std::byte> data(100, std::byte{42});
  const Codec* h = codec_for(CodecId::kHuffman);
  auto enc = h->encode(data);
  // Ask for more output than was encoded.
  EXPECT_FALSE(h->decode(enc, 10000).is_ok());
}

TEST(CodecRegistry, NameLookup) {
  EXPECT_EQ(codec_by_name("lz")->id(), CodecId::kLz);
  EXPECT_EQ(codec_by_name("rle")->id(), CodecId::kRle);
  EXPECT_EQ(codec_by_name("float16")->id(), CodecId::kFloat16);
  EXPECT_EQ(codec_by_name("xor-delta")->id(), CodecId::kXorDelta);
  EXPECT_EQ(codec_by_name("identity")->id(), CodecId::kIdentity);
  EXPECT_EQ(codec_by_name("huffman")->id(), CodecId::kHuffman);
  EXPECT_EQ(codec_by_name("gzip"), nullptr);
}

// --------------------------------------------------------------- pipeline

TEST(Pipeline, LosslessRoundTrip) {
  auto in = float_bytes(smooth_field(32, 32, 16));
  Pipeline p = Pipeline::lossless();
  EXPECT_TRUE(p.lossless_only());
  auto enc = p.encode(in);
  EXPECT_LT(enc.data.size(), in.size());  // must actually compress
  auto dec = Pipeline::decode(enc);
  ASSERT_TRUE(dec.is_ok());
  EXPECT_EQ(dec.value(), in);
}

TEST(Pipeline, LosslessRatioOnFieldsIsGzipClass) {
  // The paper reports 187% (1.87x) with gzip on CM1's 3-D arrays.
  auto in = float_bytes(smooth_field(44, 44, 50));
  auto enc = Pipeline::lossless().encode(in);
  EXPECT_GT(enc.compression_ratio(in.size()), 1.5);
  // One Kraken variable block with a turbulent storm region: 177%.
  auto storm = float_bytes(turbulent_cm1_field(44, 44, 50));
  EXPECT_NEAR(
      Pipeline::lossless().encode(storm).compression_ratio(storm.size()),
      1.767, 0.01);
}

TEST(Pipeline, VisualizationRatioIsLarge) {
  // 16-bit precision + lossless: the paper reports ~600% (6x).
  auto in = float_bytes(smooth_field(44, 44, 50));
  Pipeline p = Pipeline::visualization();
  EXPECT_FALSE(p.lossless_only());
  auto enc = p.encode(in);
  EXPECT_GT(enc.compression_ratio(in.size()), 4.0);
  // The turbulent block: ~780%.
  auto storm = float_bytes(turbulent_cm1_field(44, 44, 50));
  EXPECT_NEAR(p.encode(storm).compression_ratio(storm.size()), 7.822, 0.05);
}

TEST(Pipeline, IdentityPassThrough) {
  auto in = random_bytes(100, 1);
  auto enc = Pipeline::identity().encode(in);
  EXPECT_EQ(enc.data, in);
  EXPECT_TRUE(enc.codecs.empty());
  auto dec = Pipeline::decode(enc);
  ASSERT_TRUE(dec.is_ok());
  EXPECT_EQ(dec.value(), in);
}

TEST(Pipeline, DecodeRejectsArityMismatch) {
  auto r = Pipeline::decode(std::vector<std::byte>(4), {CodecId::kLz}, {});
  EXPECT_FALSE(r.is_ok());
}

// -------------------------------------------------------------------- dh5

class Dh5Test : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("dh5_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override { std::filesystem::remove(path_); }
  std::string path() const { return path_.string(); }

 private:
  std::filesystem::path path_;
};

TEST_F(Dh5Test, WriteReadSingleDataset) {
  auto field = smooth_field(8, 8, 4);
  auto raw = float_bytes(field);
  DatasetInfo info;
  info.name = "temperature";
  info.iteration = 12;
  info.source = 3;
  info.layout = {DataType::kFloat32, {8, 8, 4}};
  {
    auto w = Dh5Writer::create(path());
    ASSERT_TRUE(w.is_ok()) << w.status().to_string();
    ASSERT_TRUE(w.value().add_dataset(info, raw).is_ok());
    ASSERT_TRUE(w.value().finalize().is_ok());
  }
  auto r = Dh5Reader::open(path());
  ASSERT_TRUE(r.is_ok()) << r.status().to_string();
  ASSERT_EQ(r.value().entries().size(), 1u);
  const auto& e = r.value().entries()[0];
  EXPECT_EQ(e.info.name, "temperature");
  EXPECT_EQ(e.info.iteration, 12);
  EXPECT_EQ(e.info.source, 3);
  EXPECT_EQ(e.info.layout.dims, (std::vector<std::uint64_t>{8, 8, 4}));
  auto data = r.value().read(0);
  ASSERT_TRUE(data.is_ok());
  EXPECT_EQ(data.value(), raw);
}

TEST_F(Dh5Test, CompressedDatasetRoundTrips) {
  auto raw = float_bytes(smooth_field(16, 16, 8));
  DatasetInfo info;
  info.name = "u";
  info.layout = {DataType::kFloat32, {16, 16, 8}};
  {
    auto w = Dh5Writer::create(path());
    ASSERT_TRUE(w.is_ok());
    ASSERT_TRUE(
        w.value().add_dataset(info, raw, Pipeline::lossless()).is_ok());
    EXPECT_LT(w.value().stored_bytes(), w.value().raw_bytes());
    ASSERT_TRUE(w.value().finalize().is_ok());
  }
  auto r = Dh5Reader::open(path());
  ASSERT_TRUE(r.is_ok());
  auto data = r.value().read(0);
  ASSERT_TRUE(data.is_ok()) << data.status().to_string();
  EXPECT_EQ(data.value(), raw);
}

TEST_F(Dh5Test, ManyDatasetsAndFind) {
  {
    auto w = Dh5Writer::create(path());
    ASSERT_TRUE(w.is_ok());
    for (int it = 0; it < 3; ++it) {
      for (int src = 0; src < 4; ++src) {
        DatasetInfo info;
        info.name = src % 2 ? "u" : "v";
        info.iteration = it;
        info.source = src;
        info.layout = {DataType::kFloat32, {16}};
        std::vector<float> vals(16, static_cast<float>(it * 10 + src));
        ASSERT_TRUE(w.value().add_dataset(info, float_bytes(vals)).is_ok());
      }
    }
    ASSERT_TRUE(w.value().finalize().is_ok());
  }
  auto r = Dh5Reader::open(path());
  ASSERT_TRUE(r.is_ok());
  EXPECT_EQ(r.value().entries().size(), 12u);
  auto idx = r.value().find("u", 2, 3);
  ASSERT_TRUE(idx.has_value());
  auto data = r.value().read(*idx);
  ASSERT_TRUE(data.is_ok());
  float first;
  std::memcpy(&first, data.value().data(), 4);
  EXPECT_EQ(first, 23.0f);
  EXPECT_FALSE(r.value().find("w", 0, 0).has_value());
}

TEST_F(Dh5Test, UnfinalizedFileRejected) {
  {
    auto w = Dh5Writer::create(path());
    ASSERT_TRUE(w.is_ok());
    DatasetInfo info;
    info.name = "x";
    info.layout = {DataType::kUInt8, {4}};
    ASSERT_TRUE(
        w.value().add_dataset(info, random_bytes(4, 1)).is_ok());
    // destructor closes without finalize()
  }
  EXPECT_FALSE(Dh5Reader::open(path()).is_ok());
}

TEST_F(Dh5Test, CorruptPayloadDetectedByCrc) {
  auto raw = random_bytes(256, 5);
  std::uint64_t payload_offset = 0;
  {
    auto w = Dh5Writer::create(path());
    ASSERT_TRUE(w.is_ok());
    DatasetInfo info;
    info.name = "x";
    info.layout = {DataType::kUInt8, {256}};
    ASSERT_TRUE(w.value().add_dataset(info, raw).is_ok());
    ASSERT_TRUE(w.value().finalize().is_ok());
  }
  {
    auto r = Dh5Reader::open(path());
    ASSERT_TRUE(r.is_ok());
    payload_offset = r.value().entries()[0].payload_offset;
  }
  // Flip one payload byte on disk.
  std::FILE* f = std::fopen(path().c_str(), "r+b");
  ASSERT_NE(f, nullptr);
  std::fseek(f, static_cast<long>(payload_offset) + 10, SEEK_SET);
  int c = std::fgetc(f);
  std::fseek(f, -1, SEEK_CUR);
  std::fputc(c ^ 0xFF, f);
  std::fclose(f);

  auto r = Dh5Reader::open(path());
  ASSERT_TRUE(r.is_ok());
  auto data = r.value().read(0);
  EXPECT_FALSE(data.is_ok());
  EXPECT_EQ(data.status().code(), ErrorCode::kCorruptData);
}

TEST_F(Dh5Test, MissingFileFailsCleanly) {
  EXPECT_FALSE(Dh5Reader::open("/nonexistent/nope.dh5").is_ok());
}

TEST_F(Dh5Test, EmptyFileWithNoDatasets) {
  {
    auto w = Dh5Writer::create(path());
    ASSERT_TRUE(w.is_ok());
    ASSERT_TRUE(w.value().finalize().is_ok());
  }
  auto r = Dh5Reader::open(path());
  ASSERT_TRUE(r.is_ok());
  EXPECT_TRUE(r.value().entries().empty());
}

}  // namespace
}  // namespace dmr::format
