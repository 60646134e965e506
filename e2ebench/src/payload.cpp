#include "payload.hpp"

#include <cmath>

namespace e2e {

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a * 0x9E3779B97F4A7C15ull + b + 0x632BE59BD9B4E5F5ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

namespace {

/// Uniform double in [0, 1) from a xorshift64* state.
double next_unit(std::uint64_t& s) {
  s ^= s >> 12;
  s ^= s << 25;
  s ^= s >> 27;
  return static_cast<double>((s * 0x2545F4914F6CDD1Dull) >> 11) * 0x1.0p-53;
}

}  // namespace

std::vector<float> cm1_field(std::uint64_t seed, std::uint64_t nx,
                             std::uint64_t ny, std::uint64_t nz) {
  std::uint64_t rng = mix(seed, 0x5eed) | 1;
  const double pi = 3.14159265358979323846;
  // Bubble centre/width, wave numbers and phase: the separable parts of
  // exp(-r^2) and sin(kx*x + ky*y + phi) * cos(kz*z) are tabulated per axis.
  const double cx = next_unit(rng), cy = next_unit(rng), cz = 0.2 + 0.3 * next_unit(rng);
  const double width = 0.15 + 0.1 * next_unit(rng);
  const double bubble = 1.0 + 2.0 * next_unit(rng);
  const double wave = 0.3 + 0.5 * next_unit(rng);
  const double kx = 2.0 * pi * (1.0 + 2.0 * next_unit(rng));
  const double ky = 2.0 * pi * (1.0 + 2.0 * next_unit(rng));
  const double kz = pi * (0.5 + next_unit(rng));
  const double phase = 2.0 * pi * next_unit(rng);
  const double noise = 2e-3;

  auto axis = [](std::uint64_t n, auto f) {
    std::vector<double> t(n);
    for (std::uint64_t i = 0; i < n; ++i) {
      t[i] = f((static_cast<double>(i) + 0.5) / static_cast<double>(n));
    }
    return t;
  };
  const auto gauss = [width](double c) {
    return [c, width](double u) { return std::exp(-(u - c) * (u - c) / (width * width)); };
  };
  const std::vector<double> bx = axis(nx, gauss(cx)), by = axis(ny, gauss(cy)),
                            bz = axis(nz, gauss(cz));
  const std::vector<double> sx = axis(nx, [&](double u) { return std::sin(kx * u + phase); });
  const std::vector<double> cxv = axis(nx, [&](double u) { return std::cos(kx * u + phase); });
  const std::vector<double> sy = axis(ny, [&](double u) { return std::sin(ky * u); });
  const std::vector<double> cyv = axis(ny, [&](double u) { return std::cos(ky * u); });
  const std::vector<double> wz = axis(nz, [&](double u) { return wave * std::cos(kz * u); });
  const std::vector<double> base = axis(nz, [](double u) { return 300.0 + 12.0 * u; });

  std::vector<float> out(nx * ny * nz);
  std::size_t i = 0;
  for (std::uint64_t z = 0; z < nz; ++z) {
    for (std::uint64_t y = 0; y < ny; ++y) {
      const double b_yz = bubble * by[y] * bz[z];
      for (std::uint64_t x = 0; x < nx; ++x, ++i) {
        const double w = (sx[x] * cyv[y] + cxv[x] * sy[y]) * wz[z];
        const double n = noise * (next_unit(rng) - 0.5);
        out[i] = static_cast<float>(base[z] + b_yz * bx[x] + w + n);
      }
    }
  }
  return out;
}

}  // namespace e2e
