#include "service/checkpoint_store.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <stdexcept>

namespace popproto::service {

namespace {

constexpr const char* kCheckpointSuffix = ".ckpt";
constexpr const char* kManifestSuffix = ".session";

}  // namespace

CheckpointStore::CheckpointStore(std::string directory) : directory_(std::move(directory)) {
    std::error_code error;
    std::filesystem::create_directories(directory_, error);
    if (error)
        throw std::runtime_error("checkpoint store: cannot create " + directory_ + ": " +
                                 error.message());
}

std::string CheckpointStore::checkpoint_path(const std::string& id) const {
    return directory_ + "/" + id + kCheckpointSuffix;
}

std::string CheckpointStore::manifest_path(const std::string& id) const {
    return directory_ + "/" + id + kManifestSuffix;
}

void CheckpointStore::save_checkpoint(const std::string& id,
                                      const RunCheckpoint& checkpoint) const {
    write_checkpoint_atomic(checkpoint_path(id), checkpoint);
}

void CheckpointStore::save_manifest(const std::string& id, const std::string& json_line) const {
    // A reader (or a crashed previous daemon) never observes a torn
    // manifest.
    write_file_atomic(manifest_path(id), "checkpoint store",
                      [&](std::ostream& out) { out << json_line << '\n'; });
}

bool CheckpointStore::has_checkpoint(const std::string& id) const {
    std::error_code error;
    return std::filesystem::exists(checkpoint_path(id), error);
}

RunCheckpoint CheckpointStore::load_checkpoint(const std::string& id) const {
    return read_checkpoint_file(checkpoint_path(id));
}

std::string CheckpointStore::load_manifest(const std::string& id) const {
    const std::string path = manifest_path(id);
    std::ifstream in(path);
    if (!in) throw std::runtime_error("checkpoint store: cannot open " + path);
    std::string line;
    std::getline(in, line);
    if (line.empty()) throw std::runtime_error("checkpoint store: empty manifest " + path);
    return line;
}

std::vector<std::pair<std::string, std::string>> CheckpointStore::list_manifests() const {
    std::vector<std::pair<std::string, std::string>> manifests;
    std::error_code error;
    for (const auto& entry : std::filesystem::directory_iterator(directory_, error)) {
        const std::string filename = entry.path().filename().string();
        const std::size_t suffix_len = std::strlen(kManifestSuffix);
        if (filename.size() <= suffix_len ||
            filename.compare(filename.size() - suffix_len, suffix_len, kManifestSuffix) != 0)
            continue;
        const std::string id = filename.substr(0, filename.size() - suffix_len);
        manifests.emplace_back(id, load_manifest(id));
    }
    std::sort(manifests.begin(), manifests.end());
    return manifests;
}

void CheckpointStore::remove(const std::string& id) const {
    std::error_code error;
    std::filesystem::remove(checkpoint_path(id), error);
    std::filesystem::remove(manifest_path(id), error);
}

}  // namespace popproto::service
