// DH5 — a from-scratch self-describing container format standing in for
// HDF5 (paper §III-C "Persistency layer").
//
// A DH5 file holds a sequence of datasets, each carrying the paper's
// ⟨name, iteration, source, layout⟩ tuple, an optional codec pipeline
// and a CRC-32 of the stored payload. A footer index makes the file
// self-contained and cheap to scan. A writer builds the file as
// `<name>.tmp` and renames it onto `<name>` once finalized, so a crash
// never leaves a truncated file under a final name.
//
// Layout (all integers little-endian):
//   superblock : "DH5F" | u32 version | u64 reserved
//   dataset*   : "DSET" | u16 name_len | name | i64 iteration |
//                i32 source | u8 dtype | u8 ndims | u64*ndims dims |
//                u8 codec_count | u8*count codec_ids |
//                u64*count sizes_before | u64 raw_size | u64 stored_size |
//                u32 crc32 | payload
//   index      : u64 count | u64*count dataset_header_offsets
//   footer     : u64 index_offset | u64 count | "DH5E"
#pragma once

#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/status.hpp"
#include "format/pipeline.hpp"
#include "format/types.hpp"

namespace dmr::format {

/// The paper's metadata tuple for one stored block.
struct DatasetInfo {
  std::string name;
  std::int64_t iteration = 0;
  std::int32_t source = 0;
  Layout layout;
};

/// Index entry as read back from a file.
struct DatasetEntry {
  DatasetInfo info;
  std::vector<CodecId> codecs;
  std::vector<std::uint64_t> sizes_before;
  std::uint64_t raw_size = 0;
  std::uint64_t stored_size = 0;
  std::uint32_t crc = 0;
  std::uint64_t payload_offset = 0;
};

class Dh5Writer {
 public:
  Dh5Writer() = default;
  ~Dh5Writer();

  Dh5Writer(Dh5Writer&& o) noexcept;
  Dh5Writer& operator=(Dh5Writer&& o) noexcept;
  Dh5Writer(const Dh5Writer&) = delete;
  Dh5Writer& operator=(const Dh5Writer&) = delete;

  /// Creates/truncates `<path>.tmp` and writes the superblock; the file
  /// appears under `path` only once finalize() succeeds.
  static Result<Dh5Writer> create(const std::string& path);

  /// Encodes `raw` through `pipeline` and appends it as a dataset.
  Status add_dataset(const DatasetInfo& info, std::span<const std::byte> raw,
                     const Pipeline& pipeline = Pipeline::identity());

  /// Appends a pre-encoded dataset (used by the dedicated core, which
  /// compresses once and writes the result).
  Status add_encoded(const DatasetInfo& info, const EncodedBuffer& encoded,
                     std::uint64_t raw_size);

  /// Writes index + footer, closes the file and renames it onto the
  /// final path. Must be called: the destructor of an unfinalized
  /// writer closes and removes the temporary file, so no partial file
  /// is ever left under the final name.
  Status finalize();

  bool is_open() const { return file_ != nullptr; }
  std::uint64_t datasets_written() const { return offsets_.size(); }
  std::uint64_t raw_bytes() const { return raw_bytes_; }
  std::uint64_t stored_bytes() const { return stored_bytes_; }

 private:
  std::string tmp_path() const { return path_ + ".tmp"; }
  /// Closes and removes the temporary file of an unfinalized writer.
  void discard();

  std::FILE* file_ = nullptr;
  std::string path_;  // final name
  std::vector<std::uint64_t> offsets_;
  std::uint64_t raw_bytes_ = 0;
  std::uint64_t stored_bytes_ = 0;
};

class Dh5Reader {
 public:
  Dh5Reader() = default;
  ~Dh5Reader();

  Dh5Reader(Dh5Reader&& o) noexcept;
  Dh5Reader& operator=(Dh5Reader&& o) noexcept;
  Dh5Reader(const Dh5Reader&) = delete;
  Dh5Reader& operator=(const Dh5Reader&) = delete;

  /// Opens and validates superblock, footer and index.
  static Result<Dh5Reader> open(const std::string& path);

  const std::vector<DatasetEntry>& entries() const { return entries_; }

  /// Reads and fully decodes dataset `index`, verifying its CRC.
  Result<std::vector<std::byte>> read(std::size_t index);

  /// Finds the first dataset matching the tuple; nullopt if absent.
  std::optional<std::size_t> find(const std::string& name,
                                  std::int64_t iteration,
                                  std::int32_t source) const;

 private:
  std::FILE* file_ = nullptr;
  std::vector<DatasetEntry> entries_;
};

}  // namespace dmr::format
