// Mini-CM1 driven through Damaris vs a file-per-process writer — the
// paper's core comparison (§IV), at laptop scale with the *real* solver
// and the *real* middleware (threads as cores, actual DH5 files).
//
// Each "core" owns one CM1 subdomain. In Damaris mode it memcpys its
// fields into shared memory and keeps computing while the dedicated core
// writes one file per iteration. In file-per-process mode each core
// writes its own DH5 file synchronously at every output step — the
// behaviour whose jitter the paper measures.
//
// Build & run:  ./build/examples/cm1_damaris [output_every=2] [steps=6]
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <thread>
#include <vector>

#include "cm1/solver.hpp"
#include "common/clock.hpp"
#include "config/config.hpp"
#include "core/damaris.hpp"
#include "format/dh5.hpp"

namespace {

dmr::cm1::Cm1Config solver_config() {
  dmr::cm1::Cm1Config cfg;
  cfg.nx = 64;
  cfg.ny = 64;
  cfg.nz = 24;
  cfg.px = 2;
  cfg.py = 2;  // 4 subdomains = 4 compute "cores"
  return cfg;
}

std::string damaris_xml(const dmr::cm1::Cm1Config& cfg) {
  const int lx = cfg.nx / cfg.px, ly = cfg.ny / cfg.py;
  char buf[1024];
  std::snprintf(buf, sizeof(buf), R"(
<damaris>
  <buffer size="134217728" policy="partitioned"/>
  <layout name="subdomain" type="float32" dimensions="%d,%d,%d"/>
  <variable name="theta" layout="subdomain" pipeline="lossless"/>
  <variable name="u" layout="subdomain" pipeline="lossless"/>
  <variable name="v" layout="subdomain" pipeline="lossless"/>
  <variable name="w" layout="subdomain" pipeline="lossless"/>
  <variable name="qv" layout="subdomain" pipeline="lossless"/>
</damaris>)",
                lx, ly, cfg.nz);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  const int output_every = argc > 1 ? std::atoi(argv[1]) : 2;
  const int steps = argc > 2 ? std::atoi(argv[2]) : 6;
  const auto cm1_cfg = solver_config();
  const int ncores = cm1_cfg.px * cm1_cfg.py;
  const std::size_t field_elems = static_cast<std::size_t>(cm1_cfg.nx) *
                                  cm1_cfg.ny * cm1_cfg.nz /
                                  (cm1_cfg.px * cm1_cfg.py);

  // ------------------------------------------------ Damaris mode
  double damaris_write_time = 0.0;
  double damaris_total = 0.0;
  {
    auto cfg = dmr::config::Config::from_string(damaris_xml(cm1_cfg));
    if (!cfg.is_ok()) {
      std::fprintf(stderr, "%s\n", cfg.status().to_string().c_str());
      return 1;
    }
    dmr::core::NodeOptions opts;
    opts.output_dir = "cm1_out/damaris";
    opts.file_prefix = "cm1";
    dmr::core::DamarisNode node(std::move(cfg.value()), ncores, opts);
    (void)node.start();

    dmr::cm1::Cm1Solver solver(cm1_cfg);
    const auto t0 = dmr::WallClock::now();
    std::vector<float> pack(field_elems);
    for (int step = 0; step < steps; ++step) {
      solver.exchange_halos();
      {
        std::vector<std::thread> workers;
        for (int s = 0; s < ncores; ++s) {
          workers.emplace_back([&solver, s] { solver.step(s); });
        }
        for (auto& t : workers) t.join();
      }
      if ((step + 1) % output_every == 0) {
        const auto w0 = dmr::WallClock::now();
        for (int s = 0; s < ncores; ++s) {
          auto client = node.client(s);
          for (int f = 0; f < dmr::cm1::kNumFields; ++f) {
            solver.pack_field(s, f, pack);
            (void)client.write(
                dmr::cm1::kFieldNames[f], step,
                std::as_bytes(std::span<const float>(pack)));
          }
          (void)client.end_iteration(step);
        }
        damaris_write_time += dmr::seconds_since(w0);
      }
    }
    for (int s = 0; s < ncores; ++s) (void)node.client(s).finalize();
    (void)node.stop();
    damaris_total = dmr::seconds_since(t0);

    const auto stats = node.stats();
    std::printf("[damaris] %zu iterations persisted, compression %.0f%%, "
                "dedicated core spare fraction %.2f\n",
                stats.iterations.size(),
                stats.persistency.compression_ratio() * 100.0,
                stats.spare_fraction());
  }

  // ------------------------------------------- file-per-process mode
  double fpp_write_time = 0.0;
  double fpp_total = 0.0;
  {
    std::filesystem::create_directories("cm1_out/fpp");
    dmr::cm1::Cm1Solver solver(cm1_cfg);
    const auto t0 = dmr::WallClock::now();
    std::vector<float> pack(field_elems);
    for (int step = 0; step < steps; ++step) {
      solver.exchange_halos();
      {
        std::vector<std::thread> workers;
        for (int s = 0; s < ncores; ++s) {
          workers.emplace_back([&solver, s] { solver.step(s); });
        }
        for (auto& t : workers) t.join();
      }
      if ((step + 1) % output_every == 0) {
        const auto w0 = dmr::WallClock::now();
        // Every "core" writes its own file, synchronously (the paper's
        // baseline). Compression enabled like the HDF5 per-process path.
        for (int s = 0; s < ncores; ++s) {
          auto writer = dmr::format::Dh5Writer::create(
              "cm1_out/fpp/cm1_rank" + std::to_string(s) + "_it" +
              std::to_string(step) + ".dh5");
          if (!writer.is_ok()) continue;
          const auto ext = solver.local_extent(s);
          for (int f = 0; f < dmr::cm1::kNumFields; ++f) {
            solver.pack_field(s, f, pack);
            dmr::format::DatasetInfo info;
            info.name = dmr::cm1::kFieldNames[f];
            info.iteration = step;
            info.source = s;
            info.layout = {dmr::format::DataType::kFloat32,
                           {static_cast<std::uint64_t>(ext[0]),
                            static_cast<std::uint64_t>(ext[1]),
                            static_cast<std::uint64_t>(ext[2])}};
            (void)writer.value().add_dataset(
                info, std::as_bytes(std::span<const float>(pack)),
                dmr::format::Pipeline::lossless());
          }
          (void)writer.value().finalize();
        }
        fpp_write_time += dmr::seconds_since(w0);
      }
    }
    fpp_total = dmr::seconds_since(t0);
  }

  std::printf("\n%-18s %12s %18s\n", "", "run time", "in write phases");
  std::printf("%-18s %10.3f s %16.3f s\n", "damaris", damaris_total,
              damaris_write_time);
  std::printf("%-18s %10.3f s %16.3f s\n", "file-per-process", fpp_total,
              fpp_write_time);
  std::printf("\nsimulation-visible write cost: damaris/fpp = %.2f\n",
              damaris_write_time / fpp_write_time);
  return 0;
}
