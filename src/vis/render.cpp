#include "vis/render.hpp"

#include <algorithm>
#include <filesystem>
#include <limits>

#include "common/log.hpp"

namespace dmr::vis {

void blit_slice(Image& img, int x0, int y0, std::span<const float> block,
                int lx, int ly, int lz, int k, float lo, float hi) {
  for (int i = 0; i < lx; ++i) {
    for (int j = 0; j < ly; ++j) {
      const float v = block[(static_cast<std::size_t>(i) * ly + j) * lz + k];
      img.at(x0 + i, y0 + j) = colorize(v, lo, hi);
    }
  }
}

Image render_slice(std::span<const float> field, int nx, int ny, int nz,
                   int k, float lo, float hi) {
  Image img(nx, ny);
  blit_slice(img, 0, 0, field, nx, ny, nz, k, lo, hi);
  return img;
}

void register_render_action(core::DamarisNode& node,
                            const std::string& action_name,
                            RenderOptions opts) {
  node.plugins().register_action(
      action_name, [&node, opts](core::EventContext& ctx) {
        // Collect this variable's full-size blocks and check shapes.
        std::vector<const plugin::BlockView*> var_blocks;
        for (const plugin::BlockView& b : ctx.blocks) {
          if (b.variable == opts.variable && b.layout != nullptr &&
              b.layout->type == format::DataType::kFloat32 &&
              b.layout->dims.size() == 3 &&
              b.data.size() == b.layout->byte_size()) {
            var_blocks.push_back(&b);
          }
        }
        const int expected = opts.px * opts.py;
        if (static_cast<int>(var_blocks.size()) != expected) {
          DMR_LOG(kWarn, "vis")
              << "render '" << opts.variable << "' it " << ctx.iteration
              << ": " << var_blocks.size() << " blocks, expected "
              << expected;
          return;
        }
        const auto& dims = var_blocks[0]->layout->dims;
        const int lx = static_cast<int>(dims[0]);
        const int ly = static_cast<int>(dims[1]);
        const int lz = static_cast<int>(dims[2]);
        if (opts.k_slice < 0 || opts.k_slice >= lz) return;
        const auto values = [&](const plugin::BlockView& b) {
          return std::span<const float>(
              reinterpret_cast<const float*>(b.data.data()),
              static_cast<std::size_t>(lx) * ly * lz);
        };

        // Color range: fixed, or auto-scaled over this frame's slice.
        float lo = opts.lo, hi = opts.hi;
        if (!(hi > lo)) {
          lo = std::numeric_limits<float>::max();
          hi = std::numeric_limits<float>::lowest();
          for (const auto* b : var_blocks) {
            const std::span<const float> vals = values(*b);
            for (int i = 0; i < lx; ++i) {
              for (int j = 0; j < ly; ++j) {
                const float v =
                    vals[(static_cast<std::size_t>(i) * ly + j) * lz +
                         opts.k_slice];
                lo = std::min(lo, v);
                hi = std::max(hi, v);
              }
            }
          }
        }

        Image frame(lx * opts.px, ly * opts.py);
        for (const auto* b : var_blocks) {
          const int cx = b->source % opts.px;
          const int cy = b->source / opts.px;
          blit_slice(frame, cx * lx, cy * ly, values(*b), lx, ly, lz,
                     opts.k_slice, lo, hi);
        }

        std::error_code ec;
        std::filesystem::create_directories(opts.output_dir, ec);
        const std::string path = opts.output_dir + "/" + opts.variable +
                                 "_it" + std::to_string(ctx.iteration) +
                                 ".ppm";
        if (Status s = frame.write_ppm(path); !s.is_ok()) {
          DMR_LOG(kError, "vis") << s.to_string();
          return;
        }
        // Count frames through the analytics channel.
        const auto analytics = node.analytics();
        const auto frames = analytics.find(opts.variable + ".frames");
        const double n = frames == analytics.end() ? 0.0 : frames->second;
        node.publish_analytic(opts.variable + ".frames", n + 1.0);
      });
}

}  // namespace dmr::vis
