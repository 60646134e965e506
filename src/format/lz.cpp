// LZ77 codec with hash-chain match search (the lossless workhorse that
// stands in for gzip's deflate).
//
// Token format (byte-oriented, no entropy stage):
//   tag & 0x80 == 0: literal run, length = tag (1..127), followed by the
//                    literal bytes;
//   tag & 0x80 != 0: match, length = (tag & 0x7F) + kMinMatch
//                    (4..131), followed by a 2-byte little-endian
//                    distance (1..65535).
//
// On smooth simulation fields (after the xor-delta predictor) this
// reaches gzip-class ratios; on random data it degrades gracefully to
// ~100.8% of the input (1 tag byte per 127 literals).
#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "format/codec.hpp"

namespace dmr::format {

namespace {

constexpr std::size_t kMinMatch = 4;
constexpr std::size_t kMaxMatch = 131;       // kMinMatch + 127
constexpr std::size_t kWindow = 65535;       // max distance
constexpr std::size_t kHashBits = 15;
constexpr std::size_t kHashSize = 1u << kHashBits;
constexpr int kMaxChainSteps = 48;

static_assert(std::endian::native == std::endian::little,
              "match_length finds the first differing byte from the low end");

inline std::uint32_t hash4(const std::byte* p) {
  std::uint32_t v;
  std::memcpy(&v, p, 4);
  return (v * 2654435761u) >> (32 - kHashBits);
}

/// Length of the common prefix of `a` and `b`, at most `limit`; compares
/// eight bytes at a time and locates the first mismatch in the XOR.
inline std::size_t match_length(const std::byte* a, const std::byte* b,
                                std::size_t limit) {
  std::size_t len = 0;
  for (; len + 8 <= limit; len += 8) {
    std::uint64_t x = 0, y = 0;
    std::memcpy(&x, a + len, 8);
    std::memcpy(&y, b + len, 8);
    if (x != y) {
      return len + static_cast<std::size_t>(std::countr_zero(x ^ y) / 8);
    }
  }
  while (len < limit && a[len] == b[len]) ++len;
  return len;
}

class LzCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kLz; }
  std::string name() const override { return "lz"; }
  bool lossless() const override { return true; }

  std::vector<std::byte> encode(
      std::span<const std::byte> input) const override {
    const std::size_t n = input.size();
    std::vector<std::byte> out;
    out.reserve(n / 2 + 16);

    if (n < kMinMatch) {
      emit_literals(out, input.data(), n);
      return out;
    }

    // head[h]: most recent position with hash h; chain[i]: previous
    // position with the same hash as i. Positions offset by +1 so 0
    // means "none".
    std::vector<std::uint32_t> head(kHashSize, 0);
    std::vector<std::uint32_t> chain(n, 0);

    const std::byte* base = input.data();
    std::size_t lit_start = 0;
    std::size_t i = 0;
    while (i < n) {
      std::size_t best_len = 0;
      std::size_t best_dist = 0;
      const bool hashable = i + kMinMatch <= n;
      const std::uint32_t h = hashable ? hash4(base + i) : 0;
      if (hashable) {
        const std::size_t limit = std::min(kMaxMatch, n - i);
        std::uint32_t cand = head[h];
        int steps = 0;
        while (cand != 0 && steps++ < kMaxChainSteps) {
          const std::size_t pos = cand - 1;
          const std::size_t dist = i - pos;
          if (dist > kWindow) break;  // chain is ordered by recency
          // best_len < limit here, so both reads are in bounds. A
          // candidate that differs at best_len cannot beat best_len.
          if (base[pos + best_len] == base[i + best_len]) {
            const std::size_t len = match_length(base + pos, base + i, limit);
            if (len > best_len) {
              best_len = len;
              best_dist = dist;
              if (len == limit) break;
            }
          }
          cand = chain[pos];
        }
      }

      if (best_len >= kMinMatch) {
        flush_literals(out, base, lit_start, i);
        out.push_back(static_cast<std::byte>(
            0x80u | static_cast<unsigned>(best_len - kMinMatch)));
        const std::uint16_t d = static_cast<std::uint16_t>(best_dist);
        out.push_back(static_cast<std::byte>(d & 0xFF));
        out.push_back(static_cast<std::byte>(d >> 8));
        // Insert hash entries for every position we skip over.
        const std::size_t end = std::min(i + best_len, n - kMinMatch + 1);
        for (std::size_t p = i; p < end; ++p) {
          const std::uint32_t h2 = hash4(base + p);
          chain[p] = head[h2];
          head[h2] = static_cast<std::uint32_t>(p + 1);
        }
        i += best_len;
        lit_start = i;
      } else {
        if (hashable) {
          chain[i] = head[h];
          head[h] = static_cast<std::uint32_t>(i + 1);
        }
        ++i;
      }
    }
    flush_literals(out, base, lit_start, n);
    return out;
  }

  Result<std::vector<std::byte>> decode(
      std::span<const std::byte> input, std::size_t hint) const override {
    std::vector<std::byte> out(hint);
    std::byte* const dst = out.data();
    std::size_t o = 0;  // bytes decoded so far
    std::size_t i = 0;
    const std::size_t n = input.size();
    while (i < n) {
      const unsigned tag = static_cast<unsigned>(input[i++]);
      if (tag & 0x80u) {
        const std::size_t len = (tag & 0x7Fu) + kMinMatch;
        if (i + 2 > n) return corrupt_data("lz: truncated match");
        const std::size_t dist = static_cast<unsigned>(input[i]) |
                                 (static_cast<unsigned>(input[i + 1]) << 8);
        i += 2;
        if (dist == 0 || dist > o) {
          return corrupt_data("lz: bad match distance");
        }
        if (len > hint - o) return corrupt_data("lz: output exceeds hint");
        if (dist >= len) {
          std::memcpy(dst + o, dst + o - dist, len);
        } else {
          // Overlapping match (RLE-style): each byte may be one this
          // match just wrote, so copy forward one at a time.
          for (std::size_t k = 0; k < len; ++k) dst[o + k] = dst[o + k - dist];
        }
        o += len;
      } else {
        const std::size_t len = tag;
        if (len == 0) return corrupt_data("lz: zero-length literal run");
        if (len > n - i) return corrupt_data("lz: truncated literals");
        if (len > hint - o) return corrupt_data("lz: output exceeds hint");
        std::memcpy(dst + o, input.data() + i, len);
        i += len;
        o += len;
      }
    }
    if (o != hint) return corrupt_data("lz: output size mismatch");
    return out;
  }

 private:
  static void emit_literals(std::vector<std::byte>& out, const std::byte* p,
                            std::size_t len) {
    while (len > 0) {
      const std::size_t chunk = std::min<std::size_t>(len, 127);
      out.push_back(static_cast<std::byte>(chunk));
      out.insert(out.end(), p, p + chunk);
      p += chunk;
      len -= chunk;
    }
  }

  static void flush_literals(std::vector<std::byte>& out, const std::byte* base,
                             std::size_t from, std::size_t to) {
    if (to > from) emit_literals(out, base + from, to - from);
  }
};

}  // namespace

const Codec* lz_codec_singleton() {
  static const LzCodec lz;
  return &lz;
}

}  // namespace dmr::format
