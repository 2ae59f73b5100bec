// On-disk spill store for evicted sessions and graceful drains.
//
// Each session owns at most two files under the store directory:
//
//   <id>.ckpt     the RunCheckpoint in the core text format, written via
//                 write_checkpoint_atomic (tmp + rename, never a torn file)
//   <id>.session  a one-line JSON manifest: the SessionSpec plus lifecycle
//                 metadata (state, counters, terminal result), also written
//                 atomically
//
// The LRU evictor writes both when spilling an idle session; the graceful
// drain (SIGTERM) writes both for every in-flight session plus a
// manifest-only record for terminal ones, so a restarted daemon loses no
// session: RunRegistry::restore scans the directory, re-creates every
// session, and faults checkpoints back in on the session's first quantum.

#ifndef POPPROTO_SERVICE_CHECKPOINT_STORE_H
#define POPPROTO_SERVICE_CHECKPOINT_STORE_H

#include <string>
#include <utility>
#include <vector>

#include "core/run_loop.h"

namespace popproto::service {

class CheckpointStore {
public:
    /// Uses (and creates, mkdir -p style) `directory`; throws
    /// std::runtime_error when it cannot be created.
    explicit CheckpointStore(std::string directory);

    const std::string& directory() const { return directory_; }

    std::string checkpoint_path(const std::string& id) const;
    std::string manifest_path(const std::string& id) const;

    /// Atomic writes (tmp + rename; see write_file_atomic).
    void save_checkpoint(const std::string& id, const RunCheckpoint& checkpoint) const;
    void save_manifest(const std::string& id, const std::string& json_line) const;

    bool has_checkpoint(const std::string& id) const;

    /// Loads a spilled checkpoint / manifest; throws std::runtime_error
    /// naming the path when missing or unreadable.
    RunCheckpoint load_checkpoint(const std::string& id) const;
    std::string load_manifest(const std::string& id) const;

    /// Every (id, manifest line) present in the directory, sorted by id for
    /// deterministic restore order.
    std::vector<std::pair<std::string, std::string>> list_manifests() const;

    /// Deletes the session's files (missing files are not an error).
    void remove(const std::string& id) const;

private:
    std::string directory_;
};

}  // namespace popproto::service

#endif  // POPPROTO_SERVICE_CHECKPOINT_STORE_H
