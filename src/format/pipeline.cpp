#include "format/pipeline.hpp"

namespace dmr::format {

bool Pipeline::lossless_only() const {
  for (CodecId id : stages_) {
    const Codec* c = codec_for(id);
    if (!c || !c->lossless()) return false;
  }
  return true;
}

EncodedBuffer Pipeline::encode(std::span<const std::byte> input) const {
  EncodedBuffer out;
  // The first stage reads the caller's bytes; later stages read the
  // previous stage's output, which encode() returns fresh.
  std::span<const std::byte> current = input;
  for (CodecId id : stages_) {
    const Codec* c = codec_for(id);
    if (!c) continue;  // unknown stage: skip (encode must not fail)
    out.codecs.push_back(id);
    out.sizes_before.push_back(current.size());
    out.data = c->encode(current);
    current = out.data;
  }
  if (out.codecs.empty()) out.data.assign(input.begin(), input.end());
  return out;
}

Result<std::vector<std::byte>> Pipeline::decode(const EncodedBuffer& enc) {
  return decode(enc.data, enc.codecs, enc.sizes_before);
}

Result<std::vector<std::byte>> Pipeline::decode(
    std::span<const std::byte> data, const std::vector<CodecId>& codecs,
    const std::vector<std::uint64_t>& sizes_before) {
  if (codecs.size() != sizes_before.size()) {
    return corrupt_data("pipeline: stage/size arity mismatch");
  }
  std::vector<std::byte> current(data.begin(), data.end());
  for (std::size_t i = codecs.size(); i-- > 0;) {
    const Codec* c = codec_for(codecs[i]);
    if (!c) return corrupt_data("pipeline: unknown codec id");
    auto decoded = c->decode(current, sizes_before[i]);
    if (!decoded.is_ok()) return decoded.status();
    current = std::move(decoded.value());
  }
  return current;
}

}  // namespace dmr::format
