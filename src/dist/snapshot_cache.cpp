#include "dist/snapshot_cache.hpp"

#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "backend/snapshot_io.hpp"
#include "util/binary_io.hpp"
#include "util/compress.hpp"
#include "util/error.hpp"
#include "util/mmap_file.hpp"

namespace qufi::dist {

namespace fs = std::filesystem;

SnapshotCachingBackend::SnapshotCachingBackend(backend::Backend& inner,
                                               std::string cache_dir,
                                               std::string key_context,
                                               bool compress)
    : inner_(inner),
      cache_dir_(std::move(cache_dir)),
      compress_(compress && util::deflate_available()) {
  require(!cache_dir_.empty(), "snapshot cache: empty cache directory");
  // The inner backend's name encodes its family and noise-model source
  // ("density_matrix(fake_casablanca)"), so two devices with identical
  // coupling (and therefore identical transpiled circuit bytes) still key
  // to different files; key_context carries whatever else the caller knows
  // changes the evolved state (e.g. noise_scale).
  context_hash_ = util::fnv1a64(inner_.name() + "\x1f" + key_context);
  std::error_code ec;
  fs::create_directories(cache_dir_, ec);
  if (ec) throw Error("snapshot cache: cannot create directory: " + cache_dir_);
}

std::string SnapshotCachingBackend::name() const { return inner_.name(); }

bool SnapshotCachingBackend::supports_checkpointing() const {
  return inner_.supports_checkpointing();
}

std::uint64_t SnapshotCachingBackend::snapshot_schedule_digest(
    const circ::QuantumCircuit& circuit, std::size_t prefix_length) const {
  return inner_.snapshot_schedule_digest(circuit, prefix_length);
}

backend::ExecutionResult SnapshotCachingBackend::run(
    const circ::QuantumCircuit& circuit, std::uint64_t shots,
    std::uint64_t seed) {
  return inner_.run(circuit, shots, seed);
}

namespace {

/// Key = execution identity (backend name + context) + exact circuit
/// bytes + every prepare_prefix argument + the backend's schedule digest
/// at the split (non-zero only for moment-aware idle-noise snapshots,
/// where the evolved state also depends on the sealed moment schedule), so
/// a cache directory can be shared by campaigns over different circuits,
/// devices, noise scales, seeds or scheduler versions without ever serving
/// the wrong state. extend_snapshot uses the same key at its target split
/// (derivation is bit-identical to a from-scratch prepare, so the tree
/// path collapses out of the key).
fs::path snapshot_key_path(const std::string& cache_dir,
                           std::uint64_t context_hash,
                           const circ::QuantumCircuit& circuit,
                           std::size_t prefix_length, std::uint64_t shots_hint,
                           std::uint64_t snapshot_seed,
                           std::uint64_t schedule_digest) {
  const std::uint64_t words[] = {context_hash,
                                 backend::snapio::circuit_fingerprint(circuit),
                                 prefix_length, shots_hint, snapshot_seed,
                                 schedule_digest};
  char key[64];
  std::snprintf(key, sizeof key, "snap_%016" PRIx64 ".qsnap",
                util::fnv1a64({reinterpret_cast<const char*>(words),
                               sizeof words}));
  return fs::path(cache_dir) / key;
}

}  // namespace

backend::PrefixSnapshotPtr SnapshotCachingBackend::prepare_prefix(
    const circ::QuantumCircuit& circuit, std::size_t prefix_length,
    std::uint64_t shots_hint, std::uint64_t snapshot_seed) {
  if (!inner_.supports_checkpointing()) {
    return inner_.prepare_prefix(circuit, prefix_length, shots_hint,
                                 snapshot_seed);
  }

  const fs::path path = snapshot_key_path(
      cache_dir_, context_hash_, circuit, prefix_length, shots_hint,
      snapshot_seed,
      inner_.snapshot_schedule_digest(circuit, prefix_length));

  if (auto snapshot = load_cached(path.string())) {
    hits_.fetch_add(1);
    return snapshot;
  }

  auto snapshot = inner_.prepare_prefix(circuit, prefix_length, shots_hint,
                                        snapshot_seed);
  misses_.fetch_add(1);
  persist(*snapshot, path.string());
  return snapshot;
}

backend::PrefixSnapshotPtr SnapshotCachingBackend::extend_snapshot(
    const backend::PrefixSnapshot& parent, std::size_t from_gate,
    std::size_t to_gate, std::uint64_t shots_hint,
    std::uint64_t snapshot_seed) {
  const circ::QuantumCircuit* circuit = parent.circuit();
  if (!inner_.supports_checkpointing() || circuit == nullptr) {
    return inner_.extend_snapshot(parent, from_gate, to_gate, shots_hint,
                                  snapshot_seed);
  }
  // Validate the chain contract up front so a bad call fails the same way
  // on cache hits and misses.
  require(from_gate == parent.prefix_length(),
          "extend_snapshot: from_gate does not match the parent prefix");
  require(to_gate >= from_gate && to_gate <= circuit->size(),
          "extend_snapshot: to_gate out of range");

  const fs::path path = snapshot_key_path(
      cache_dir_, context_hash_, *circuit, to_gate, shots_hint, snapshot_seed,
      inner_.snapshot_schedule_digest(*circuit, to_gate));
  if (auto snapshot = load_cached(path.string())) {
    hits_.fetch_add(1);
    return snapshot;
  }

  auto snapshot = inner_.extend_snapshot(parent, from_gate, to_gate,
                                         shots_hint, snapshot_seed);
  misses_.fetch_add(1);
  persist(*snapshot, path.string());
  return snapshot;
}

backend::PrefixSnapshotPtr SnapshotCachingBackend::load_cached(
    const std::string& path) {
  try {
    util::MmapFile map(path);
    if (map.is_open()) {
      util::ViewIstream in(map.view());
      return inner_.load_snapshot(in);
    }
    // Mapping unavailable (file vanished, empty, exotic filesystem): a
    // plain stream read is still correct, just private-buffered.
    std::ifstream in(path, std::ios::binary);
    if (in.is_open()) return inner_.load_snapshot(in);
  } catch (const Error&) {
    // Corrupt/truncated file (killed worker mid-write without the atomic
    // rename, bit rot): the caller recomputes.
  }
  return nullptr;
}

void SnapshotCachingBackend::persist(const backend::PrefixSnapshot& snapshot,
                                     const std::string& path) {
  // Write-then-rename keeps readers from ever seeing a partial file; the
  // pid + counter temp name keeps concurrent writers of the same key —
  // other threads AND other worker processes sharing the directory — from
  // clobbering each other mid-write (content is identical either way:
  // snapshots are deterministic in the key).
  const fs::path target(path);
  const fs::path temp = path + ".tmp" + std::to_string(::getpid()) + "." +
                        std::to_string(temp_counter_.fetch_add(1));
  {
    std::ofstream out(temp, std::ios::binary);
    if (!out.is_open()) return;  // cache dir vanished: still correct
    bool ok = false;
    if (compress_) {
      // The inner backend always frames uncompressed; re-frame its
      // container with the deflate codec. The payload bytes (and so the
      // loaded state) are identical — only the storage encoding changes.
      std::ostringstream plain;
      ok = inner_.save_snapshot(snapshot, plain);
      if (ok) {
        std::istringstream in(std::move(plain).str());
        const auto container = backend::snapio::read_container(in);
        backend::snapio::write_container(
            out, container.kind, container.payload,
            backend::snapio::PayloadCodec::Deflate);
        ok = out.good();
      }
    } else {
      ok = inner_.save_snapshot(snapshot, out);
    }
    if (!ok) {
      out.close();
      std::error_code ec;
      fs::remove(temp, ec);
      return;  // inner backend has no serializable form
    }
  }
  std::error_code ec;
  fs::rename(temp, target, ec);
  if (ec) fs::remove(temp, ec);
}

backend::ExecutionResult SnapshotCachingBackend::run_suffix(
    const backend::PrefixSnapshot& snapshot,
    std::span<const circ::Instruction> injected, std::uint64_t shots,
    std::uint64_t seed) {
  return inner_.run_suffix(snapshot, injected, shots, seed);
}

std::vector<backend::ExecutionResult> SnapshotCachingBackend::run_suffix_batch(
    const backend::PrefixSnapshot& snapshot,
    std::span<const backend::SuffixConfig> configs, std::uint64_t shots) {
  return inner_.run_suffix_batch(snapshot, configs, shots);
}

bool SnapshotCachingBackend::save_snapshot(
    const backend::PrefixSnapshot& snapshot, std::ostream& out) const {
  return inner_.save_snapshot(snapshot, out);
}

backend::PrefixSnapshotPtr SnapshotCachingBackend::load_snapshot(
    std::istream& in) const {
  return inner_.load_snapshot(in);
}

}  // namespace qufi::dist
