// Robustness sweeps: hostile inputs must produce clean errors, never
// crashes, hangs or silent corruption. Deterministic "fuzzing" with the
// library's own RNG so failures replay exactly.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <string>

#include "common/rng.hpp"
#include "config/config.hpp"
#include "config/xml.hpp"
#include "format/codec.hpp"
#include "format/dh5.hpp"
#include "format/pipeline.hpp"

namespace dmr {
namespace {

std::vector<std::byte> random_bytes(Rng& rng, std::size_t n) {
  std::vector<std::byte> v(n);
  for (auto& b : v) b = static_cast<std::byte>(rng.next_below(256));
  return v;
}

// ------------------------------------------------------------- xml fuzz

TEST(XmlFuzz, RandomBytesNeverCrash) {
  Rng rng(0xF002);
  for (int i = 0; i < 2000; ++i) {
    const std::size_t len = rng.next_below(64);
    std::string s;
    for (std::size_t j = 0; j < len; ++j) {
      s.push_back(static_cast<char>(rng.next_below(128)));
    }
    auto r = config::parse_xml(s);  // must return, ok or not
    (void)r;
  }
  SUCCEED();
}

TEST(XmlFuzz, StructuredMutationsNeverCrash) {
  const std::string base = R"(<damaris>
    <buffer size="1048576" policy="partitioned"/>
    <layout name="l" type="real" dimensions="4,4"/>
    <variable name="v" layout="l"/>
  </damaris>)";
  Rng rng(0xF003);
  for (int i = 0; i < 2000; ++i) {
    std::string s = base;
    // Flip, delete or duplicate a few characters.
    for (int m = 0; m < 3; ++m) {
      const std::size_t pos = rng.next_below(s.size());
      switch (rng.next_below(3)) {
        case 0: s[pos] = static_cast<char>(33 + rng.next_below(90)); break;
        case 1: s.erase(pos, 1); break;
        case 2: s.insert(pos, 1, s[pos]); break;
      }
    }
    auto cfg = config::Config::from_string(s);
    if (cfg.is_ok()) {
      // A config that still parses must be internally consistent.
      for (const auto& [name, var] : cfg.value().variables()) {
        EXPECT_NE(cfg.value().find_layout(var.layout_name), nullptr);
      }
    }
  }
}

std::string nested(int depth) {
  std::string s;
  s.reserve(static_cast<std::size_t>(depth) * 7);
  for (int i = 0; i < depth; ++i) s += "<a>";
  for (int i = 0; i < depth; ++i) s += "</a>";
  return s;
}

TEST(XmlFuzz, DeepNestingBounded) {
  // The parser recurses once per element level, so nesting is capped at
  // 64 levels (like the monitor's JSON parser): deeper documents fail
  // with a Status instead of choosing the stack depth.
  EXPECT_TRUE(config::parse_xml(nested(64)).is_ok());
  auto r = config::parse_xml(nested(65));
  ASSERT_FALSE(r.is_ok());
  EXPECT_EQ(r.status().code(), ErrorCode::kCorruptData);
}

TEST(XmlFuzz, MillionLevelNestingRejectedWithoutCrash) {
  auto cfg = config::Config::from_string(nested(1000000));
  ASSERT_FALSE(cfg.is_ok());
  EXPECT_EQ(cfg.status().code(), ErrorCode::kCorruptData);
}

// ----------------------------------------------------------- codec fuzz

class CodecFuzz : public ::testing::TestWithParam<format::CodecId> {};

TEST_P(CodecFuzz, RandomStreamsDecodeCleanlyOrFail) {
  const format::Codec* c = format::codec_for(GetParam());
  Rng rng(0xF004 + static_cast<int>(GetParam()));
  for (int i = 0; i < 500; ++i) {
    auto garbage = random_bytes(rng, rng.next_below(512));
    const std::size_t hint = rng.next_below(1024);
    auto r = c->decode(garbage, hint);
    if (r.is_ok()) {
      EXPECT_EQ(r.value().size(), hint);  // honoured contract
    }
  }
}

TEST_P(CodecFuzz, TruncatedValidStreamsFailCleanly) {
  const format::Codec* c = format::codec_for(GetParam());
  Rng rng(0xF005);
  auto original = random_bytes(rng, 4096);
  auto encoded = c->encode(original);
  for (std::size_t cut = 0; cut < encoded.size();
       cut += 1 + encoded.size() / 64) {
    std::span<const std::byte> truncated(encoded.data(), cut);
    auto r = c->decode(truncated, original.size());
    if (r.is_ok()) {
      // Only acceptable if the full content really fit in the prefix
      // (can't happen for truncations of a tight stream, except cut==n).
      EXPECT_EQ(r.value(), original);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(AllCodecs, CodecFuzz,
                         ::testing::Values(format::CodecId::kIdentity,
                                           format::CodecId::kRle,
                                           format::CodecId::kLz,
                                           format::CodecId::kXorDelta,
                                           format::CodecId::kFloat16,
                                           format::CodecId::kHuffman),
                         [](const auto& param_info) {
                           std::string n =
                               format::codec_for(param_info.param)->name();
                           for (auto& ch : n) {
                             if (ch == '-') ch = '_';
                           }
                           return n;
                         });

TEST(PipelineFuzz, RoundTripRandomSizes) {
  Rng rng(0xF006);
  for (int i = 0; i < 200; ++i) {
    auto data = random_bytes(rng, rng.next_below(4096));
    for (const auto& p :
         {format::Pipeline::lossless(), format::Pipeline::identity()}) {
      auto enc = p.encode(data);
      auto dec = format::Pipeline::decode(enc);
      ASSERT_TRUE(dec.is_ok());
      EXPECT_EQ(dec.value(), data);
    }
  }
}

// ------------------------------------------------------------- dh5 fuzz

class Dh5Fuzz : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = std::filesystem::temp_directory_path() /
            ("dh5_fuzz_" + std::to_string(::getpid()) + "_" +
             ::testing::UnitTest::GetInstance()->current_test_info()->name());
  }
  void TearDown() override { std::filesystem::remove(path_); }

  void write_valid_file() {
    auto w = format::Dh5Writer::create(path_.string());
    ASSERT_TRUE(w.is_ok());
    Rng rng(0xF007);
    for (int d = 0; d < 4; ++d) {
      format::DatasetInfo info;
      info.name = "var" + std::to_string(d);
      info.iteration = d;
      info.source = d % 2;
      info.layout = {format::DataType::kFloat32, {64}};
      auto data = random_bytes(rng, 256);
      ASSERT_TRUE(
          w.value()
              .add_dataset(info, data, format::Pipeline::lossless())
              .is_ok());
    }
    ASSERT_TRUE(w.value().finalize().is_ok());
  }

  std::filesystem::path path_;
};

TEST_F(Dh5Fuzz, TruncationsNeverCrash) {
  write_valid_file();
  const auto size = std::filesystem::file_size(path_);
  std::vector<char> content(size);
  {
    std::FILE* f = std::fopen(path_.string().c_str(), "rb");
    ASSERT_EQ(std::fread(content.data(), 1, size, f), size);
    std::fclose(f);
  }
  for (std::uintmax_t cut = 0; cut < size; ++cut) {
    std::FILE* f = std::fopen(path_.string().c_str(), "wb");
    std::fwrite(content.data(), 1, cut, f);
    std::fclose(f);
    auto r = format::Dh5Reader::open(path_.string());
    if (r.is_ok()) {
      // Truncation before the footer must have been detected; reaching
      // here means the cut kept the whole file (cut == size only).
      EXPECT_EQ(cut, size);
    }
  }
}

TEST_F(Dh5Fuzz, RandomCorruptionDetectedOrHarmless) {
  Rng rng(0xF008);
  for (int trial = 0; trial < 50; ++trial) {
    write_valid_file();
    const auto size = std::filesystem::file_size(path_);
    // Corrupt three random bytes.
    std::FILE* f = std::fopen(path_.string().c_str(), "r+b");
    for (int k = 0; k < 3; ++k) {
      std::fseek(f, static_cast<long>(rng.next_below(size)), SEEK_SET);
      std::fputc(static_cast<int>(rng.next_below(256)), f);
    }
    std::fclose(f);
    auto r = format::Dh5Reader::open(path_.string());
    if (!r.is_ok()) continue;  // structural damage detected at open
    for (std::size_t i = 0; i < r.value().entries().size(); ++i) {
      auto data = r.value().read(i);
      // Either a clean error (CRC/codec) or plausibly untouched data.
      if (data.is_ok()) {
        EXPECT_EQ(data.value().size(), r.value().entries()[i].raw_size);
      }
    }
  }
}

}  // namespace
}  // namespace dmr
