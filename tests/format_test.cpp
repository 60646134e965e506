#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdio>
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

/// Bit-at-a-time CRC-32: the definition the table-driven kernel must
/// match on every length and alignment.
std::uint32_t crc32_reference(std::span<const std::byte> data,
                              std::uint32_t seed = 0) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (std::byte b : data) {
    c ^= static_cast<std::uint8_t>(b);
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32, MatchesReferenceAtEveryLengthAndAlignment) {
  const auto data = random_bytes(64 + 8, 17);
  for (std::size_t offset = 0; offset < 8; ++offset) {
    for (std::size_t len = 0; len <= 64; ++len) {
      const std::span<const std::byte> s(data.data() + offset, len);
      EXPECT_EQ(crc32(s), crc32_reference(s))
          << "offset " << offset << " length " << len;
      EXPECT_EQ(crc32(s, 0xDEADBEEFu), crc32_reference(s, 0xDEADBEEFu))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32, SeedChainsAtEverySplitPoint) {
  const auto data = random_bytes(1024, 19);
  const std::uint32_t whole = crc32_reference(data);
  ASSERT_EQ(crc32(data), whole);
  const std::span<const std::byte> all(data);
  for (std::size_t split = 0; split <= data.size(); ++split) {
    EXPECT_EQ(crc32(all.subspan(split), crc32(all.first(split))), whole)
        << "split " << split;
  }
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

// ---------------------------------------------------------- byte identity

/// FNV-1a, 64-bit.
std::uint64_t fnv1a64(std::span<const std::byte> data,
                      std::uint64_t h = 0xCBF29CE484222325ull) {
  for (std::byte b : data) {
    h ^= static_cast<std::uint8_t>(b);
    h *= 0x100000001B3ull;
  }
  return h;
}

std::uint64_t digest_of(const EncodedBuffer& enc) {
  std::uint64_t h = fnv1a64(enc.data);
  for (std::size_t i = 0; i < enc.codecs.size(); ++i) {
    const std::uint64_t stage[2] = {static_cast<std::uint64_t>(enc.codecs[i]),
                                    enc.sizes_before[i]};
    h = fnv1a64(std::as_bytes(std::span<const std::uint64_t>(stage)), h);
  }
  return h;
}

/// Inputs that reach every branch of the encoders: real fields, no
/// matches at all, one long run, tiny inputs, matches of exactly the
/// maximum length, and matches on either side of the window edge.
std::vector<std::pair<std::string, std::vector<std::byte>>> identity_inputs() {
  std::vector<std::pair<std::string, std::vector<std::byte>>> in;
  in.emplace_back("turbulent", float_bytes(turbulent_cm1_field(44, 44, 50)));
  in.emplace_back("smooth", float_bytes(smooth_field(44, 44, 50)));
  in.emplace_back("random64k", random_bytes(64 * 1024, 23));
  in.emplace_back("zeros1m", std::vector<std::byte>(1 << 20));
  in.emplace_back("empty", std::vector<std::byte>{});
  in.emplace_back("one", to_bytes("x"));
  in.emplace_back("two", to_bytes("xy"));
  in.emplace_back("three", to_bytes("xyz"));
  const auto period = random_bytes(131, 29);
  std::vector<std::byte> periodic(64 * 1024);
  for (std::size_t i = 0; i < periodic.size(); ++i) {
    periodic[i] = period[i % period.size()];
  }
  in.emplace_back("period131", std::move(periodic));
  // Random bytes with two copied 100-byte runs: one 65535 back (the
  // window's far edge, matchable) and one 65536 back (just outside).
  auto edge = random_bytes(140000, 31);
  std::memcpy(edge.data() + 65535, edge.data(), 100);
  std::memcpy(edge.data() + 70000 + 65536, edge.data() + 70000, 100);
  in.emplace_back("window_edge", std::move(edge));
  return in;
}

/// Digests of each codec's output (identity, rle, lz, xor-delta,
/// float16, huffman) and of the lossless and visualization pipelines. A
/// digest that moves means the library writes different DH5 bytes: a
/// format change, not a speedup.
struct GoldenDigests {
  const char* input;
  std::array<std::uint64_t, 8> digest;
};

constexpr GoldenDigests kGoldenDigests[] = {
    {"turbulent",
     {0x8FD6D0120532F41Cull, 0xED1BD4095EBAFC4Full, 0x23141D8116F69520ull,
      0x8CFAC58138ED8B55ull, 0x5710D33D65348FE2ull, 0x9B026D34364D64A0ull,
      0xCF6A140115EFEF9Cull, 0x215367A6A3798EAEull}},
    {"smooth",
     {0x9B8500F7DD4EB73Full, 0x8194ADEBCCCCB85Full, 0xA54983FA458BA6D8ull,
      0x33780ADE7DE9FE34ull, 0xE02962EBC54EF945ull, 0x5BABC6637026891Full,
      0x555A439F30CEF0FEull, 0x297A085F86854F92ull}},
    {"random64k",
     {0x3D0202F2587E66A4ull, 0xF326C9B1AB5BE9A4ull, 0x5C2469AFE8885D44ull,
      0x83C4DA460DDFFB6Cull, 0x7FE7FAD24E8066C5ull, 0xC741BE0DE3D490A4ull,
      0x2F69539A0C9928EAull, 0x2E46CEE4F028F027ull}},
    {"zeros1m",
     {0xA96777069D622325ull, 0x8DF3314D16C4A325ull, 0xE3F5DC743AB28A00ull,
      0xA96777069D622325ull, 0xFC31BFF590C22325ull, 0x0A8598703DCD0D35ull,
      0xD3A3DB98232FAD04ull, 0xB4FEC175B34693F5ull}},
    {"empty",
     {0xCBF29CE484222325ull, 0xCBF29CE484222325ull, 0xCBF29CE484222325ull,
      0xCBF29CE484222325ull, 0xCBF29CE484222325ull, 0x8421AE126C7CED25ull,
      0xFECD8E7372F6CFE1ull, 0x39DB4EA096933F25ull}},
    {"one",
     {0xAF63F54C86021707ull, 0x08325007B4EB10C5ull, 0x082F4A07B4E8D0BCull,
      0xAF63F54C86021707ull, 0xAF63F54C86021707ull, 0x6513B78DBFC61FAFull,
      0xF1D18C9229599A1Aull, 0xF49B691F95D9797Full}},
    {"two",
     {0x08F14F07B58DEB1Aull, 0xD12B9018679ABEBFull, 0xEA850F1875C8713Aull,
      0x08F14F07B58DEB1Aull, 0x08F14F07B58DEB1Aull, 0x3B42B421B63E7F0Cull,
      0x0A93DC3E1DE4154Bull, 0x9E9DDD377D286A8Dull}},
    {"three",
     {0xBFF4AA198026F420ull, 0x4889E69023986FC0ull, 0xE85AFA89A496F14Dull,
      0xBFF4AA198026F420ull, 0xBFF4AA198026F420ull, 0xD73362D2B7A6B8E5ull,
      0x447D985669AF75E2ull, 0xFFCDA97C64C6B705ull}},
    {"period131",
     {0x27AFE5D237082947ull, 0xBDFB37624723653Dull, 0xF364F9D4D891D600ull,
      0xFB31D704C5C75AEFull, 0xEB1231BD7873564Bull, 0xE6DDD9A41C156872ull,
      0xFA7BEF2F665B41B0ull, 0x596F314773F5ABA8ull}},
    {"window_edge",
     {0xD649E942415E2B66ull, 0x13FBF0CF180EBE90ull, 0xB5198AC1CF7C93B9ull,
      0x1475533BCE16D3A8ull, 0x9419817F54B8C1AEull, 0xE1AD9ECC7E975566ull,
      0xBE093947F52C9A71ull, 0xC520C93707867C87ull}},
};

TEST(ByteIdentity, EncodersMatchPinnedDigests) {
  const CodecId codecs[] = {CodecId::kIdentity, CodecId::kRle,
                            CodecId::kLz,       CodecId::kXorDelta,
                            CodecId::kFloat16,  CodecId::kHuffman};
  const auto inputs = identity_inputs();
  ASSERT_EQ(inputs.size(), std::size(kGoldenDigests));
  for (std::size_t row = 0; row < inputs.size(); ++row) {
    const auto& [name, in] = inputs[row];
    ASSERT_EQ(name, kGoldenDigests[row].input);
    std::array<std::uint64_t, 8> got{};
    for (std::size_t k = 0; k < std::size(codecs); ++k) {
      const Codec* c = codec_for(codecs[k]);
      const auto enc = c->encode(in);
      got[k] = fnv1a64(enc);
      if (c->lossless()) {
        auto dec = c->decode(enc, in.size());
        ASSERT_TRUE(dec.is_ok()) << name << " " << c->name();
        EXPECT_EQ(dec.value(), in) << name << " " << c->name();
      }
    }
    const auto lossless = Pipeline::lossless().encode(in);
    got[6] = digest_of(lossless);
    got[7] = digest_of(Pipeline::visualization().encode(in));
    auto dec = Pipeline::decode(lossless);
    ASSERT_TRUE(dec.is_ok()) << name;
    EXPECT_EQ(dec.value(), in) << name;

    std::string row_text;
    for (std::uint64_t d : got) {
      char hex[24];
      std::snprintf(hex, sizeof hex, "0x%016llXull",
                    static_cast<unsigned long long>(d));
      row_text += (row_text.empty() ? "" : ", ") + std::string(hex);
    }
    EXPECT_EQ(got, kGoldenDigests[row].digest)
        << "{\"" << name << "\", {" << row_text << "}},";
  }
}

// -------------------------------------------------------------------- dh5

class Dh5Test : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("dh5_test_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override {
    std::filesystem::remove(path_);
    std::filesystem::remove(tmp_path());
  }
  std::string path() const { return path_.string(); }
  std::string tmp_path() const { return path_.string() + ".tmp"; }

  /// Writes one dataset of `n` random bytes through the lossless
  /// pipeline and returns its entry as read back.
  DatasetEntry write_one_lossless(std::size_t n) {
    {
      auto w = Dh5Writer::create(path());
      EXPECT_TRUE(w.is_ok());
      DatasetInfo info;
      info.name = "x";
      info.layout = {DataType::kUInt8, {n}};
      EXPECT_TRUE(w.value()
                      .add_dataset(info, random_bytes(n, 3),
                                   Pipeline::lossless())
                      .is_ok());
      EXPECT_TRUE(w.value().finalize().is_ok());
    }
    auto r = Dh5Reader::open(path());
    EXPECT_TRUE(r.is_ok());
    return r.value().entries().at(0);
  }

  /// Overwrites the u64 at `offset` of the file (header fields are
  /// outside the CRC).
  void patch_u64(std::uint64_t offset, std::uint64_t value) {
    std::FILE* f = std::fopen(path().c_str(), "r+b");
    ASSERT_NE(f, nullptr);
    ASSERT_EQ(std::fseek(f, static_cast<long>(offset), SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(&value, sizeof value, 1, f), 1u);
    std::fclose(f);
  }

 private:
  std::filesystem::path path_;
};

// Header tail before the payload: u64 raw_size | u64 stored_size | u32 crc.
constexpr std::uint64_t kStoredSizeBack = 4 + 8;
constexpr std::uint64_t kRawSizeBack = 4 + 8 + 8;

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
  // Neither the final name nor the temporary file is left behind.
  EXPECT_FALSE(std::filesystem::exists(path()));
  EXPECT_FALSE(std::filesystem::exists(tmp_path()));
}

TEST_F(Dh5Test, FinalizedWriterLeavesOnlyTheFinalName) {
  auto w = Dh5Writer::create(path());
  ASSERT_TRUE(w.is_ok());
  DatasetInfo info;
  info.name = "x";
  info.layout = {DataType::kUInt8, {4}};
  ASSERT_TRUE(w.value().add_dataset(info, random_bytes(4, 1)).is_ok());
  EXPECT_FALSE(std::filesystem::exists(path()));  // still being written
  ASSERT_TRUE(w.value().finalize().is_ok());
  EXPECT_TRUE(std::filesystem::exists(path()));
  EXPECT_FALSE(std::filesystem::exists(tmp_path()));
  EXPECT_TRUE(Dh5Reader::open(path()).is_ok());
}

TEST_F(Dh5Test, WrappingStoredSizeRejectedAtOpen) {
  // payload_offset + stored_size wraps to a small number for a stored
  // size near 2^64; the reader must reject the header, not try to
  // allocate it.
  const DatasetEntry e = write_one_lossless(4000);
  patch_u64(e.payload_offset - kStoredSizeBack, ~std::uint64_t{0} - 15);
  auto r = Dh5Reader::open(path());
  if (r.is_ok()) {
    (void)r.value().read(0);  // used to throw std::length_error
  }
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
}

TEST_F(Dh5Test, DecodedSizeMustMatchHeaderRawSize) {
  const DatasetEntry e = write_one_lossless(4000);
  for (std::uint64_t raw : {3996u, 4004u}) {
    patch_u64(e.payload_offset - kRawSizeBack, raw);
    auto r = Dh5Reader::open(path());
    ASSERT_TRUE(r.is_ok());
    EXPECT_EQ(r.value().entries()[0].raw_size, raw);
    auto data = r.value().read(0);
    EXPECT_FALSE(data.is_ok()) << "raw_size " << raw;
    EXPECT_EQ(data.status().code(), ErrorCode::kCorruptData);
  }
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
