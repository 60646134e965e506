// Canonical Huffman codec — the entropy stage that turns the LZ token
// stream into a deflate-class pipeline (the paper's gzip produced 187%
// on CM1 fields; LZ alone leaves entropy on the table).
//
// Format: 128-byte header of 256 4-bit code lengths (0 = symbol absent,
// max length 15), then the MSB-first bitstream. The decoded size comes
// from the container, so no terminator is needed.
#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <queue>
#include <vector>

#include "format/codec.hpp"

namespace dmr::format {

namespace {

constexpr int kMaxLen = 15;
constexpr int kSymbols = 256;

/// Computes Huffman code lengths for `freq`, capped at kMaxLen by
/// frequency-halving retries (a standard, always-terminating trick: in
/// the limit all frequencies reach 1 and the tree is balanced, depth 8).
std::array<std::uint8_t, kSymbols> code_lengths(
    std::array<std::uint64_t, kSymbols> freq) {
  std::array<std::uint8_t, kSymbols> lengths{};
  for (;;) {
    // Heap of (weight, node). Leaves are 0..255, internal nodes follow.
    struct Node {
      std::uint64_t weight;
      int index;
    };
    auto cmp = [](const Node& a, const Node& b) {
      if (a.weight != b.weight) return a.weight > b.weight;
      return a.index > b.index;  // deterministic ties
    };
    std::priority_queue<Node, std::vector<Node>, decltype(cmp)> heap(cmp);
    std::vector<int> parent;
    parent.reserve(2 * kSymbols);
    for (int s = 0; s < kSymbols; ++s) {
      parent.push_back(-1);
      if (freq[s] > 0) heap.push({freq[s], s});
    }
    if (heap.empty()) return lengths;  // empty input
    if (heap.size() == 1) {
      lengths[heap.top().index] = 1;  // single symbol: one-bit code
      return lengths;
    }
    while (heap.size() > 1) {
      const Node a = heap.top();
      heap.pop();
      const Node b = heap.top();
      heap.pop();
      const int idx = static_cast<int>(parent.size());
      parent.push_back(-1);
      parent[a.index] = idx;
      parent[b.index] = idx;
      heap.push({a.weight + b.weight, idx});
    }
    int max_len = 0;
    for (int s = 0; s < kSymbols; ++s) {
      if (freq[s] == 0) {
        lengths[s] = 0;
        continue;
      }
      int len = 0;
      for (int n = s; parent[n] != -1; n = parent[n]) ++len;
      lengths[s] = static_cast<std::uint8_t>(len);
      max_len = std::max(max_len, len);
    }
    if (max_len <= kMaxLen) return lengths;
    for (auto& f : freq) {
      if (f > 1) f = (f + 1) / 2;  // flatten and retry
    }
  }
}

/// Canonical code assignment: shorter codes first, ties by symbol.
struct CanonicalCodes {
  std::array<std::uint16_t, kSymbols> code{};
  std::array<std::uint8_t, kSymbols> length{};
};

CanonicalCodes canonical_codes(
    const std::array<std::uint8_t, kSymbols>& lengths) {
  CanonicalCodes out;
  out.length = lengths;
  std::array<int, kMaxLen + 2> count{};
  for (int s = 0; s < kSymbols; ++s) ++count[lengths[s]];
  count[0] = 0;
  std::array<std::uint16_t, kMaxLen + 2> next{};
  std::uint16_t code = 0;
  for (int len = 1; len <= kMaxLen; ++len) {
    code = static_cast<std::uint16_t>((code + count[len - 1]) << 1);
    next[len] = code;
  }
  for (int s = 0; s < kSymbols; ++s) {
    if (lengths[s]) out.code[s] = next[lengths[s]]++;
  }
  return out;
}

static_assert(std::endian::native == std::endian::little,
              "the decoder loads eight stream bytes as one word");

/// Stores the low 32 bits of `v` most significant byte first.
inline void store_be32(std::byte* p, std::uint64_t v) {
  p[0] = static_cast<std::byte>(v >> 24);
  p[1] = static_cast<std::byte>(v >> 16);
  p[2] = static_cast<std::byte>(v >> 8);
  p[3] = static_cast<std::byte>(v);
}

class HuffmanCodec final : public Codec {
 public:
  CodecId id() const override { return CodecId::kHuffman; }
  std::string name() const override { return "huffman"; }
  bool lossless() const override { return true; }

  std::vector<std::byte> encode(
      std::span<const std::byte> input) const override {
    std::array<std::uint64_t, kSymbols> freq{};
    for (std::byte b : input) ++freq[static_cast<std::uint8_t>(b)];
    const auto lengths = code_lengths(freq);
    const auto codes = canonical_codes(lengths);

    std::uint64_t total_bits = 0;
    for (int s = 0; s < kSymbols; ++s) total_bits += freq[s] * lengths[s];
    std::vector<std::byte> out(kSymbols / 2 + (total_bits + 7) / 8);
    // Header: 256 nibbles.
    for (int s = 0; s < kSymbols; s += 2) {
      out[s / 2] = static_cast<std::byte>((lengths[s] << 4) | lengths[s + 1]);
    }
    // The low `nbits` bits of `acc` are pending output, oldest first;
    // whole 32-bit words leave as soon as they are complete.
    std::byte* p = out.data() + kSymbols / 2;
    std::uint64_t acc = 0;
    int nbits = 0;
    for (std::byte b : input) {
      const auto s = static_cast<std::uint8_t>(b);
      acc = (acc << codes.length[s]) | codes.code[s];
      nbits += codes.length[s];
      if (nbits >= 32) {
        nbits -= 32;
        store_be32(p, acc >> nbits);
        p += 4;
      }
    }
    for (; nbits >= 8; nbits -= 8) {
      *p++ = static_cast<std::byte>(acc >> (nbits - 8));
    }
    if (nbits > 0) *p = static_cast<std::byte>(acc << (8 - nbits));
    return out;
  }

  Result<std::vector<std::byte>> decode(
      std::span<const std::byte> input,
      std::size_t decoded_size_hint) const override {
    if (input.size() < kSymbols / 2) {
      return corrupt_data("huffman: missing length table");
    }
    std::array<std::uint8_t, kSymbols> lengths{};
    for (int s = 0; s < kSymbols; s += 2) {
      const auto v = static_cast<std::uint8_t>(input[s / 2]);
      lengths[s] = v >> 4;
      lengths[s + 1] = v & 0x0F;
    }
    // Kraft validation, in units of 2^-kMaxLen.
    std::uint32_t kraft = 0;
    for (int s = 0; s < kSymbols; ++s) {
      if (lengths[s]) kraft += 1u << (kMaxLen - lengths[s]);
    }
    if (kraft == 0) {
      if (decoded_size_hint != 0) {
        return corrupt_data("huffman: empty code, nonzero output");
      }
      return std::vector<std::byte>{};
    }
    if (kraft > (1u << kMaxLen)) {
      return corrupt_data("huffman: over-subscribed code");
    }
    // Every kMaxLen-bit window that starts with a symbol's code maps to
    // that symbol and its length; a zero entry starts with no code (the
    // code may be incomplete).
    struct Entry {
      std::uint8_t symbol;
      std::uint8_t length;
    };
    std::vector<Entry> table(1u << kMaxLen, Entry{0, 0});
    const auto codes = canonical_codes(lengths);
    for (int s = 0; s < kSymbols; ++s) {
      if (lengths[s] == 0) continue;
      const int spare = kMaxLen - lengths[s];
      const auto first = table.begin() + (codes.code[s] << spare);
      std::fill(first, first + (1 << spare),
                Entry{static_cast<std::uint8_t>(s), lengths[s]});
    }

    std::vector<std::byte> out(decoded_size_hint);
    const std::byte* stream = input.data() + kSymbols / 2;
    const std::size_t nbytes = input.size() - kSymbols / 2;
    const std::size_t nbits = nbytes * 8;
    // `buf` holds the next `have` bits of the stream from its top bit
    // down (zeros past the end). A refill may also OR in the first bits
    // of the byte after them; the next refill ORs the same bits again.
    std::uint64_t buf = 0;
    int have = 0;
    std::size_t next = 0;  // next stream byte to load
    std::size_t bit = 0;   // bits consumed
    for (std::byte& o : out) {
      if (next + 8 <= nbytes) {
        std::uint64_t word = 0;
        std::memcpy(&word, stream + next, 8);
        buf |= __builtin_bswap64(word) >> have;
        next += static_cast<std::size_t>((63 - have) >> 3);
        have |= 56;
      } else {
        for (; have <= 56; have += 8, ++next) {
          const auto b = next < nbytes ? static_cast<std::uint8_t>(stream[next])
                                       : std::uint8_t{0};
          buf |= static_cast<std::uint64_t>(b) << (56 - have);
        }
      }
      const Entry e = table[buf >> (64 - kMaxLen)];
      if (e.length == 0) return corrupt_data("huffman: bad code");
      if (bit + e.length > nbits) {
        return corrupt_data("huffman: bitstream exhausted");
      }
      o = static_cast<std::byte>(e.symbol);
      buf <<= e.length;
      have -= e.length;
      bit += e.length;
    }
    return out;
  }
};

}  // namespace

const Codec* huffman_codec_singleton() {
  static const HuffmanCodec huffman;
  return &huffman;
}

}  // namespace dmr::format
