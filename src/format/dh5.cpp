#include "format/dh5.hpp"

#include <cstring>

#include "format/crc32.hpp"

namespace dmr::format {

namespace {

constexpr char kFileMagic[4] = {'D', 'H', '5', 'F'};
constexpr char kEndMagic[4] = {'D', 'H', '5', 'E'};
constexpr char kDsetMagic[4] = {'D', 'S', 'E', 'T'};
constexpr std::uint32_t kVersion = 1;

// Little-endian scalar I/O helpers (the library targets little-endian
// hosts; a big-endian port would byte-swap here).
template <typename T>
bool write_scalar(std::FILE* f, T v) {
  return std::fwrite(&v, sizeof(T), 1, f) == 1;
}

template <typename T>
bool read_scalar(std::FILE* f, T& v) {
  return std::fread(&v, sizeof(T), 1, f) == 1;
}

bool write_bytes(std::FILE* f, const void* p, std::size_t n) {
  return n == 0 || std::fwrite(p, 1, n, f) == n;
}

bool read_bytes(std::FILE* f, void* p, std::size_t n) {
  return n == 0 || std::fread(p, 1, n, f) == n;
}

}  // namespace

// ------------------------------------------------------------- writer

Dh5Writer::~Dh5Writer() { discard(); }

void Dh5Writer::discard() {
  if (!file_) return;
  std::fclose(file_);
  file_ = nullptr;
  std::remove(tmp_path().c_str());
}

Dh5Writer::Dh5Writer(Dh5Writer&& o) noexcept
    : file_(o.file_),
      path_(std::move(o.path_)),
      offsets_(std::move(o.offsets_)),
      raw_bytes_(o.raw_bytes_),
      stored_bytes_(o.stored_bytes_) {
  o.file_ = nullptr;
}

Dh5Writer& Dh5Writer::operator=(Dh5Writer&& o) noexcept {
  if (this != &o) {
    discard();
    file_ = o.file_;
    path_ = std::move(o.path_);
    offsets_ = std::move(o.offsets_);
    raw_bytes_ = o.raw_bytes_;
    stored_bytes_ = o.stored_bytes_;
    o.file_ = nullptr;
  }
  return *this;
}

Result<Dh5Writer> Dh5Writer::create(const std::string& path) {
  Dh5Writer w;
  w.path_ = path;
  w.file_ = std::fopen(w.tmp_path().c_str(), "wb");
  if (!w.file_) return io_error("cannot create " + w.tmp_path());
  if (!write_bytes(w.file_, kFileMagic, 4) ||
      !write_scalar(w.file_, kVersion) ||
      !write_scalar<std::uint64_t>(w.file_, 0)) {
    return io_error("cannot write superblock of " + path);
  }
  return w;
}

Status Dh5Writer::add_dataset(const DatasetInfo& info,
                              std::span<const std::byte> raw,
                              const Pipeline& pipeline) {
  EncodedBuffer enc = pipeline.encode(raw);
  return add_encoded(info, enc, raw.size());
}

Status Dh5Writer::add_encoded(const DatasetInfo& info,
                              const EncodedBuffer& encoded,
                              std::uint64_t raw_size) {
  if (!file_) return failed_precondition("writer is closed");
  if (info.name.size() > 0xFFFF) return invalid_argument("name too long");
  if (info.layout.dims.size() > 0xFF) return invalid_argument("too many dims");
  if (encoded.codecs.size() > 0xFF) return invalid_argument("too many codecs");

  const long pos = std::ftell(file_);
  if (pos < 0) return io_error("ftell failed");
  offsets_.push_back(static_cast<std::uint64_t>(pos));

  const std::uint32_t crc =
      crc32(std::span<const std::byte>(encoded.data.data(),
                                       encoded.data.size()));
  bool ok = write_bytes(file_, kDsetMagic, 4) &&
            write_scalar<std::uint16_t>(
                file_, static_cast<std::uint16_t>(info.name.size())) &&
            write_bytes(file_, info.name.data(), info.name.size()) &&
            write_scalar<std::int64_t>(file_, info.iteration) &&
            write_scalar<std::int32_t>(file_, info.source) &&
            write_scalar<std::uint8_t>(
                file_, static_cast<std::uint8_t>(info.layout.type)) &&
            write_scalar<std::uint8_t>(
                file_, static_cast<std::uint8_t>(info.layout.dims.size()));
  for (std::uint64_t d : info.layout.dims) ok = ok && write_scalar(file_, d);
  ok = ok && write_scalar<std::uint8_t>(
                 file_, static_cast<std::uint8_t>(encoded.codecs.size()));
  for (CodecId c : encoded.codecs) {
    ok = ok && write_scalar<std::uint8_t>(file_,
                                          static_cast<std::uint8_t>(c));
  }
  for (std::uint64_t s : encoded.sizes_before) {
    ok = ok && write_scalar(file_, s);
  }
  ok = ok && write_scalar<std::uint64_t>(file_, raw_size) &&
       write_scalar<std::uint64_t>(file_, encoded.data.size()) &&
       write_scalar<std::uint32_t>(file_, crc) &&
       write_bytes(file_, encoded.data.data(), encoded.data.size());
  if (!ok) return io_error("short write in " + path_);

  raw_bytes_ += raw_size;
  stored_bytes_ += encoded.data.size();
  return Status::ok();
}

Status Dh5Writer::finalize() {
  if (!file_) return failed_precondition("writer is closed");
  const long index_pos = std::ftell(file_);
  if (index_pos < 0) return io_error("ftell failed");
  bool ok = write_scalar<std::uint64_t>(file_, offsets_.size());
  for (std::uint64_t off : offsets_) ok = ok && write_scalar(file_, off);
  ok = ok && write_scalar<std::uint64_t>(
                 file_, static_cast<std::uint64_t>(index_pos)) &&
       write_scalar<std::uint64_t>(file_, offsets_.size()) &&
       write_bytes(file_, kEndMagic, 4);
  if (!ok) return io_error("cannot write index of " + path_);
  const int closed = std::fclose(file_);
  file_ = nullptr;
  if (closed != 0 || std::rename(tmp_path().c_str(), path_.c_str()) != 0) {
    std::remove(tmp_path().c_str());
    return io_error("cannot close and rename " + tmp_path());
  }
  return Status::ok();
}

// ------------------------------------------------------------- reader

Dh5Reader::~Dh5Reader() {
  if (file_) std::fclose(file_);
}

Dh5Reader::Dh5Reader(Dh5Reader&& o) noexcept
    : file_(o.file_), entries_(std::move(o.entries_)) {
  o.file_ = nullptr;
}

Dh5Reader& Dh5Reader::operator=(Dh5Reader&& o) noexcept {
  if (this != &o) {
    if (file_) std::fclose(file_);
    file_ = o.file_;
    entries_ = std::move(o.entries_);
    o.file_ = nullptr;
  }
  return *this;
}

Result<Dh5Reader> Dh5Reader::open(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return io_error("cannot open " + path);
  Dh5Reader r;
  r.file_ = f;

  char magic[4];
  std::uint32_t version;
  std::uint64_t reserved;
  if (!read_bytes(f, magic, 4) || std::memcmp(magic, kFileMagic, 4) != 0) {
    return corrupt_data(path + ": bad superblock magic");
  }
  if (!read_scalar(f, version) || version != kVersion) {
    return corrupt_data(path + ": unsupported version");
  }
  if (!read_scalar(f, reserved)) return corrupt_data(path + ": truncated");

  // Footer: last 20 bytes.
  if (std::fseek(f, 0, SEEK_END) != 0) {
    return corrupt_data(path + ": seek failed");
  }
  const long end = std::ftell(f);
  if (end < 20) return corrupt_data(path + ": too short for a footer");
  const std::uint64_t file_size = static_cast<std::uint64_t>(end);
  if (std::fseek(f, -20, SEEK_END) != 0) {
    return corrupt_data(path + ": no footer");
  }
  std::uint64_t index_offset = 0, count = 0;
  char end_magic[4];
  if (!read_scalar(f, index_offset) || !read_scalar(f, count) ||
      !read_bytes(f, end_magic, 4) ||
      std::memcmp(end_magic, kEndMagic, 4) != 0) {
    return corrupt_data(path + ": bad footer (file not finalized?)");
  }
  // Each indexed dataset needs at least an 8-byte offset entry; a count
  // beyond that is corruption (and would drive a huge allocation).
  if (count > file_size / 8 || index_offset >= file_size) {
    return corrupt_data(path + ": implausible index");
  }

  // Index.
  if (std::fseek(f, static_cast<long>(index_offset), SEEK_SET) != 0) {
    return corrupt_data(path + ": bad index offset");
  }
  std::uint64_t index_count = 0;
  if (!read_scalar(f, index_count) || index_count != count) {
    return corrupt_data(path + ": index/footer count mismatch");
  }
  std::vector<std::uint64_t> offsets(count);
  for (auto& off : offsets) {
    if (!read_scalar(f, off)) return corrupt_data(path + ": short index");
  }

  // Dataset headers.
  r.entries_.reserve(count);
  for (std::uint64_t off : offsets) {
    if (std::fseek(f, static_cast<long>(off), SEEK_SET) != 0) {
      return corrupt_data(path + ": bad dataset offset");
    }
    char dmagic[4];
    if (!read_bytes(f, dmagic, 4) ||
        std::memcmp(dmagic, kDsetMagic, 4) != 0) {
      return corrupt_data(path + ": bad dataset magic");
    }
    DatasetEntry e;
    std::uint16_t name_len;
    if (!read_scalar(f, name_len)) return corrupt_data(path + ": truncated");
    e.info.name.resize(name_len);
    if (!read_bytes(f, e.info.name.data(), name_len)) {
      return corrupt_data(path + ": truncated name");
    }
    std::uint8_t dtype, ndims, ncodecs;
    if (!read_scalar(f, e.info.iteration) ||
        !read_scalar(f, e.info.source) || !read_scalar(f, dtype) ||
        !read_scalar(f, ndims)) {
      return corrupt_data(path + ": truncated header");
    }
    if (dtype > static_cast<std::uint8_t>(DataType::kFloat64)) {
      return corrupt_data(path + ": unknown dtype");
    }
    e.info.layout.type = static_cast<DataType>(dtype);
    e.info.layout.dims.resize(ndims);
    for (auto& d : e.info.layout.dims) {
      if (!read_scalar(f, d)) return corrupt_data(path + ": truncated dims");
    }
    if (!read_scalar(f, ncodecs)) return corrupt_data(path + ": truncated");
    e.codecs.resize(ncodecs);
    for (auto& c : e.codecs) {
      std::uint8_t id;
      if (!read_scalar(f, id)) return corrupt_data(path + ": truncated");
      c = static_cast<CodecId>(id);
    }
    e.sizes_before.resize(ncodecs);
    for (auto& s : e.sizes_before) {
      if (!read_scalar(f, s)) return corrupt_data(path + ": truncated");
    }
    if (!read_scalar(f, e.raw_size) || !read_scalar(f, e.stored_size) ||
        !read_scalar(f, e.crc)) {
      return corrupt_data(path + ": truncated sizes");
    }
    const long payload = std::ftell(f);
    if (payload < 0) return io_error("ftell failed");
    e.payload_offset = static_cast<std::uint64_t>(payload);
    // Size sanity: a corrupted header must not drive the reader into
    // huge allocations. Payload must fit in the file, and the decoded
    // sizes cannot exceed what the codec stages could possibly expand
    // to (LZ77's worst-case expansion is ~44x per stage; 512x total is
    // a generous cap). Neither comparison can wrap: the payload offset
    // lies inside the file, and the bound is taken of a size that does.
    if (e.stored_size > file_size - e.payload_offset) {
      return corrupt_data(path + ": implausible dataset sizes");
    }
    const std::uint64_t max_decoded = e.stored_size * 512 + 4096;
    if (e.raw_size > max_decoded) {
      return corrupt_data(path + ": implausible dataset sizes");
    }
    for (std::uint64_t s : e.sizes_before) {
      if (s > max_decoded) {
        return corrupt_data(path + ": implausible stage size");
      }
    }
    r.entries_.push_back(std::move(e));
  }
  return r;
}

Result<std::vector<std::byte>> Dh5Reader::read(std::size_t index) {
  if (index >= entries_.size()) return invalid_argument("bad dataset index");
  const DatasetEntry& e = entries_[index];
  if (std::fseek(file_, static_cast<long>(e.payload_offset), SEEK_SET) != 0) {
    return io_error("seek failed");
  }
  std::vector<std::byte> stored(e.stored_size);
  if (!read_bytes(file_, stored.data(), stored.size())) {
    return corrupt_data("short payload read");
  }
  if (crc32(stored) != e.crc) {
    return corrupt_data("crc mismatch in dataset '" + e.info.name + "'");
  }
  if (e.codecs.empty()) {
    if (stored.size() != e.raw_size) {
      return corrupt_data("raw size mismatch");
    }
    return stored;
  }
  auto decoded = Pipeline::decode(stored, e.codecs, e.sizes_before);
  if (decoded.is_ok() && decoded.value().size() != e.raw_size) {
    return corrupt_data("decoded size mismatch in dataset '" + e.info.name +
                        "'");
  }
  return decoded;
}

std::optional<std::size_t> Dh5Reader::find(const std::string& name,
                                           std::int64_t iteration,
                                           std::int32_t source) const {
  for (std::size_t i = 0; i < entries_.size(); ++i) {
    const auto& info = entries_[i].info;
    if (info.name == name && info.iteration == iteration &&
        info.source == source) {
      return i;
    }
  }
  return std::nullopt;
}

}  // namespace dmr::format
