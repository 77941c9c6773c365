// StorageConfig — the knob block SimulationConfig embeds to put the
// world table on disk (src/storage/). Lives here, not in the engine, so
// the storage layer stays engine-independent; SimulationConfig includes
// this header and delegates to Validate().
#ifndef SGL_STORAGE_CONFIG_H_
#define SGL_STORAGE_CONFIG_H_

#include <cstdint>
#include <string>

#include "util/status.h"

namespace sgl {

/// Durable-world settings. Leaving `path` empty (the default) keeps the
/// simulation purely in memory with zero storage overhead — no listener
/// on the table, no pages, no log. With a path, every tick appends to the
/// write-ahead log.
struct StorageConfig {
  /// Directory for the world's files (pages.sgl, wal.sgl, MANIFEST.sgl,
  /// inlet.sgl). Created if absent. Empty = storage disabled.
  std::string path;

  /// Bytes per on-disk page (24-byte header + 8-byte cells).
  int32_t page_size = 8192;

  /// Checkpoint automatically every N ticks (0 = only explicit
  /// Simulation::Checkpoint calls).
  int64_t checkpoint_every = 0;

  bool enabled() const { return !path.empty(); }

  /// Validation with SimulationConfig's message vocabulary.
  Status Validate() const;
};

}  // namespace sgl

#endif  // SGL_STORAGE_CONFIG_H_
