#include "service/scheduler.h"

#include <stdexcept>

#include "core/require.h"

namespace popproto::service {

void DrrScheduler::add(std::string id, std::uint64_t weight) {
    require(weight >= 1, "DrrScheduler: weight must be at least 1");
    for (const Entry& entry : ring_)
        if (entry.id == id)
            throw std::invalid_argument("DrrScheduler: session already queued: " + id);
    ring_.push_back(Entry{std::move(id), weight, 0});
}

std::optional<DrrScheduler::Entry> DrrScheduler::take() {
    if (ring_.empty()) return std::nullopt;
    Entry entry = std::move(ring_.front());
    ring_.pop_front();
    if (entry.deficit == 0) entry.deficit = entry.weight;
    --entry.deficit;
    return entry;
}

void DrrScheduler::give_back(Entry entry, bool still_runnable) {
    if (!still_runnable) return;
    if (entry.deficit > 0)
        ring_.push_front(std::move(entry));
    else
        ring_.push_back(std::move(entry));
}

bool DrrScheduler::remove(const std::string& id) {
    for (auto it = ring_.begin(); it != ring_.end(); ++it) {
        if (it->id == id) {
            ring_.erase(it);
            return true;
        }
    }
    return false;
}

}  // namespace popproto::service
