#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "cm1/solver.hpp"
#include "core/damaris.hpp"
#include "postproc/catalog.hpp"

namespace dmr::postproc {
namespace {

/// Writes a 2x2-decomposed solver field into per-process DH5 files (the
/// file-per-process layout) and also via Damaris (one gathered file).
class PostprocFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("postproc_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);

    cm1::Cm1Config cfg;
    cfg.nx = 32;
    cfg.ny = 32;
    cfg.nz = 8;
    cfg.px = 2;
    cfg.py = 2;
    solver_ = std::make_unique<cm1::Cm1Solver>(cfg);
    for (int i = 0; i < 3; ++i) solver_->step_all();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Per-process files: one per (source, iteration).
  void write_fpp(std::int64_t iteration) {
    std::vector<float> pack(16 * 16 * 8);
    for (int s = 0; s < 4; ++s) {
      auto w = format::Dh5Writer::create(
          dir_.string() + "/rank" + std::to_string(s) + "_it" +
          std::to_string(iteration) + ".dh5");
      ASSERT_TRUE(w.is_ok());
      for (int f = 0; f < cm1::kNumFields; ++f) {
        solver_->pack_field(s, f, pack);
        format::DatasetInfo info;
        info.name = cm1::kFieldNames[f];
        info.iteration = iteration;
        info.source = s;
        info.layout = {format::DataType::kFloat32, {16, 16, 8}};
        ASSERT_TRUE(w.value()
                        .add_dataset(info,
                                     std::as_bytes(std::span<const float>(
                                         pack)),
                                     format::Pipeline::lossless())
                        .is_ok());
      }
      ASSERT_TRUE(w.value().finalize().is_ok());
    }
  }

  std::filesystem::path dir_;
  std::unique_ptr<cm1::Cm1Solver> solver_;
};

TEST_F(PostprocFixture, ScanIndexesEverything) {
  write_fpp(0);
  write_fpp(1);
  auto cat = Catalog::scan(dir_.string());
  ASSERT_TRUE(cat.is_ok()) << cat.status().to_string();
  EXPECT_EQ(cat.value().num_files(), 8u);
  EXPECT_EQ(cat.value().entries().size(), 8u * cm1::kNumFields / 2 * 2);
  EXPECT_EQ(cat.value().variables().size(),
            static_cast<std::size_t>(cm1::kNumFields));
  EXPECT_EQ(cat.value().iterations(), (std::vector<std::int64_t>{0, 1}));
  EXPECT_GT(cat.value().total_raw_bytes(),
            cat.value().total_stored_bytes());  // lossless compression
}

TEST_F(PostprocFixture, FindSortsBySource) {
  write_fpp(0);
  auto cat = Catalog::scan(dir_.string());
  ASSERT_TRUE(cat.is_ok());
  auto blocks = cat.value().find("theta", 0);
  ASSERT_EQ(blocks.size(), 4u);
  for (int s = 0; s < 4; ++s) EXPECT_EQ(blocks[s]->info.source, s);
  EXPECT_TRUE(cat.value().find("theta", 99).empty());
  EXPECT_TRUE(cat.value().find("ghost", 0).empty());
}

TEST_F(PostprocFixture, AssembleMatchesSolver) {
  write_fpp(0);
  auto cat = Catalog::scan(dir_.string());
  ASSERT_TRUE(cat.is_ok());
  auto field = assemble_field(cat.value(), "theta", 0, 2, 2);
  ASSERT_TRUE(field.is_ok()) << field.status().to_string();
  const auto& f = field.value();
  EXPECT_EQ(f.nx, 32u);
  EXPECT_EQ(f.ny, 32u);
  EXPECT_EQ(f.nz, 8u);

  // Every interior cell must equal the solver's value: check each
  // subdomain's corner and a few interior points.
  std::vector<float> pack(16 * 16 * 8);
  for (int s = 0; s < 4; ++s) {
    solver_->pack_field(s, 0, pack);
    const std::uint64_t cx = s % 2, cy = s / 2;
    for (auto [i, j, k] : {std::array<std::uint64_t, 3>{0, 0, 0},
                           {5, 7, 3},
                           {15, 15, 7}}) {
      EXPECT_EQ(f.at(cx * 16 + i, cy * 16 + j, k),
                pack[(i * 16 + j) * 8 + k])
          << "source " << s;
    }
  }
  // Statistics match the solver's global diagnostics.
  auto [lo, hi] = solver_->field_range(0);
  EXPECT_FLOAT_EQ(f.min(), lo);
  EXPECT_FLOAT_EQ(f.max(), hi);
}

TEST_F(PostprocFixture, AssembleFromDamarisGatheredFiles) {
  // The same data written through the middleware: one gathered file per
  // iteration instead of four — the catalog doesn't care.
  auto cfg = config::Config::from_string(R"(
    <damaris>
      <buffer size="8388608" policy="partitioned"/>
      <layout name="sub" type="float32" dimensions="16,16,8"/>
      <variable name="theta" layout="sub"/>
    </damaris>)");
  ASSERT_TRUE(cfg.is_ok());
  core::NodeOptions opts;
  opts.output_dir = dir_.string();
  opts.file_prefix = "gathered";
  core::DamarisNode node(std::move(cfg.value()), 4, opts);
  ASSERT_TRUE(node.start().is_ok());
  std::vector<std::thread> clients;
  for (int s = 0; s < 4; ++s) {
    clients.emplace_back([&, s] {
      std::vector<float> pack(16 * 16 * 8);
      solver_->pack_field(s, 0, pack);
      auto client = node.client(s);
      ASSERT_TRUE(
          client.write("theta", 0, std::as_bytes(std::span<const float>(pack)))
              .is_ok());
      ASSERT_TRUE(client.end_iteration(0).is_ok());
      ASSERT_TRUE(client.finalize().is_ok());
    });
  }
  for (auto& t : clients) t.join();
  ASSERT_TRUE(node.stop().is_ok());

  auto cat = Catalog::scan(dir_.string());
  ASSERT_TRUE(cat.is_ok());
  EXPECT_EQ(cat.value().num_files(), 1u);  // gathered!
  auto field = assemble_field(cat.value(), "theta", 0, 2, 2);
  ASSERT_TRUE(field.is_ok()) << field.status().to_string();
  auto [lo, hi] = solver_->field_range(0);
  EXPECT_FLOAT_EQ(field.value().min(), lo);
  EXPECT_FLOAT_EQ(field.value().max(), hi);
}

TEST_F(PostprocFixture, AssembleErrors) {
  write_fpp(0);
  auto cat = Catalog::scan(dir_.string());
  ASSERT_TRUE(cat.is_ok());
  // Wrong decomposition: expects 9 sources, only 4 exist.
  EXPECT_FALSE(assemble_field(cat.value(), "theta", 0, 3, 3).is_ok());
  // Unknown variable / iteration.
  EXPECT_FALSE(assemble_field(cat.value(), "ghost", 0, 2, 2).is_ok());
  EXPECT_FALSE(assemble_field(cat.value(), "theta", 5, 2, 2).is_ok());
  // Degenerate grid.
  EXPECT_FALSE(assemble_field(cat.value(), "theta", 0, 0, 2).is_ok());
}

TEST_F(PostprocFixture, TruncatedFileFailsScanCleanly) {
  write_fpp(0);
  // A temporary file left by a writer that never finalized is not a
  // .dh5 file, so the scan skips it.
  {
    std::FILE* f = std::fopen((dir_ / "rank9_it0.dh5.tmp").c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("DH5F", f);
    std::fclose(f);
  }
  ASSERT_TRUE(Catalog::scan(dir_.string()).is_ok());
  // A finished file cut short anywhere fails the scan with a Status.
  const auto victim = dir_ / "rank1_it0.dh5";
  const std::uintmax_t size = std::filesystem::file_size(victim);
  for (std::uintmax_t cut : {size - 1, size - 20, size / 2, std::uintmax_t{4},
                             std::uintmax_t{0}}) {
    std::filesystem::resize_file(victim, cut);
    auto cat = Catalog::scan(dir_.string());
    ASSERT_FALSE(cat.is_ok()) << "cut at " << cut;
    EXPECT_EQ(cat.status().code(), ErrorCode::kCorruptData) << "cut at " << cut;
  }
}

TEST(CatalogErrors, MissingDirectory) {
  EXPECT_FALSE(Catalog::scan("/nonexistent/damaris_out").is_ok());
}

TEST(CatalogErrors, CorruptFileFailsScan) {
  const auto dir = std::filesystem::temp_directory_path() /
                   ("catalog_corrupt_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  {
    std::FILE* f = std::fopen((dir / "junk.dh5").c_str(), "wb");
    std::fputs("not a dh5 file", f);
    std::fclose(f);
  }
  EXPECT_FALSE(Catalog::scan(dir.string()).is_ok());
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dmr::postproc
