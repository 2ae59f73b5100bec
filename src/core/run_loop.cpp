#include "core/run_loop.h"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace popproto {

std::uint64_t default_budget(std::uint64_t population, double factor) {
    require(population >= 2, "default_budget: population too small");
    const double n = static_cast<double>(population);
    const double budget = factor * n * n * (std::log(n) + 1.0);
    // n^2 log n clears 2^64 before n = 2^28; the float->int cast would be
    // undefined there (observed as a budget of 1 at n = 2^30), so saturate:
    // "effectively unbounded" is the honest meaning of the default at that
    // scale, and runs stop on silence/stability long before.
    if (budget >= static_cast<double>(~std::uint64_t{0})) return ~std::uint64_t{0};
    return static_cast<std::uint64_t>(budget) + 1;
}

std::uint64_t resolved_budget(const RunOptions& options, std::uint64_t population) {
    return options.max_interactions != 0 ? options.max_interactions : default_budget(population);
}

void require_engine_field(const RunOptions& options, SimulationEngine accepted,
                          const char* entry_point) {
    if (options.engine == SimulationEngine::kAuto || options.engine == accepted) return;
    const char* requested = "kAuto";
    switch (options.engine) {
        case SimulationEngine::kAuto:
            break;
        case SimulationEngine::kAgentArray:
            requested = "kAgentArray";
            break;
        case SimulationEngine::kCountBatch:
            requested = "kCountBatch";
            break;
        case SimulationEngine::kCollapsedBatch:
            requested = "kCollapsedBatch";
            break;
        case SimulationEngine::kAdaptive:
            requested = "kAdaptive";
            break;
    }
    require(false, std::string(entry_point) + ": options.engine requests " + requested +
                       ", which this entry point does not run; call run_simulation to "
                       "dispatch on the field, or leave it kAuto");
}

void require_checkpoint_counts(const std::vector<std::uint64_t>& counts, std::size_t num_states,
                               std::uint64_t population, const char* engine) {
    if (counts.size() != num_states)
        throw std::invalid_argument(std::string(engine) + ": checkpoint state-count mismatch");
    if (checked_sum(counts) != population)
        throw std::invalid_argument(std::string(engine) + ": checkpoint population mismatch");
}

namespace {

// Serialized checkpoint grammar (one key per line, space-separated values):
//
//   popproto-checkpoint v<kFormatVersion>
//   engine <observed_engine_name>
//   population <n>
//   num_states <|Q|>
//   rng <w0> <w1> <w2> <w3>
//   interactions <i>
//   effective <e>
//   last_output_change <l>
//   next_silence_check 0                (written as 0 and 1 and ignored on
//   changed_since_check 1                read: the retired periodic silence
//                                        probe's state, kept so v1 files read
//                                        both ways)
//   pending_skip <0|1> <remaining>
//   interaction_model <name> <k> <w...> (stateful pairing models only;
//                                        k serialized model words)
//   shard_rngs <K> <w...>               (parallel collapsed engine only;
//                                        4K words, shard-major)
//   adaptive <a> <b> <c>                (read only: the retired adaptive
//                                        dispatcher's monitor state; the
//                                        reader takes the checkpoint as
//                                        `engine adaptive` and ignores the
//                                        words)
//   counts <k> <c0> ... <c{k-1}>        (count engines; k == num_states)
//   agents <k> <s0> ... <s{k-1}>        (agent engines; k == population)
//   end
//
// All integers are decimal.  A declared length is checked against the
// header and against the values the line holds, which the reader appends as
// it parses them, so a corrupt length is a named error and never sizes a
// vector.  Exactly one of counts/agents is present; the interaction_model
// and shard_rngs lines are present exactly when the run carries a stateful
// pairing model / shard streams (both are optional lines, so v1 readers of
// old checkpoints still work and plain static runs serialize
// byte-identically to checkpoints written before each section existed).

/// Line-oriented tokenizer for the grammar above.  The grammar is one key
/// per line, so every parse error can name the line number and the
/// offending token — a corrupted spill file faulted back by the service
/// daemon is diagnosable from the exception message alone.
class CheckpointParser {
public:
    explicit CheckpointParser(std::istream& in) : in_(in) {}

    /// Advances to the next non-blank line; `expected` names what the
    /// caller was looking for in the end-of-file message.
    void next_line(const std::string& expected) {
        std::string text;
        while (std::getline(in_, text)) {
            ++line_number_;
            if (!text.empty() && text.back() == '\r') text.pop_back();
            if (text.find_first_not_of(" \t") != std::string::npos) {
                line_.clear();
                line_.str(text);
                return;
            }
        }
        if (line_number_ == 0) line_number_ = 1;  // empty stream: "line 1"
        fail("unexpected end of file, expected '" + expected + "'");
    }

    /// Next whitespace-separated token on the current line.
    std::string token(const std::string& expected) {
        std::string word;
        if (!(line_ >> word)) fail("line ended before '" + expected + "'");
        return word;
    }

    /// Requires the next token to be exactly `key`.
    void expect(const std::string& key) {
        const std::string word = token(key);
        if (word != key) fail("expected '" + key + "', got '" + word + "'");
    }

    /// Next token parsed as a decimal unsigned integer.
    std::uint64_t u64(const std::string& what) {
        const std::string word = token(what);
        if (word.empty() || word.find_first_not_of("0123456789") != std::string::npos)
            fail("bad value for '" + what + "': got '" + word + "'");
        try {
            return std::stoull(word);
        } catch (const std::out_of_range&) {
            fail("bad value for '" + what + "': '" + word + "' overflows 64 bits");
        }
    }

    /// Requires the current line to hold no further tokens.
    void end_line() {
        std::string word;
        if (line_ >> word) fail("unexpected trailing token '" + word + "'");
    }

    /// Whole `key <u64>` line in one call.
    std::uint64_t u64_line(const std::string& key) {
        next_line(key);
        expect(key);
        const std::uint64_t value = u64(key);
        end_line();
        return value;
    }

    [[noreturn]] void fail(const std::string& what) const {
        throw std::invalid_argument("read_checkpoint: line " + std::to_string(line_number_) +
                                    ": " + what);
    }

private:
    std::istream& in_;
    std::istringstream line_;
    std::size_t line_number_ = 0;
};

}  // namespace

void write_checkpoint(std::ostream& out, const RunCheckpoint& checkpoint) {
    out << "popproto-checkpoint v" << RunCheckpoint::kFormatVersion << "\n";
    out << "engine " << observed_engine_name(checkpoint.engine) << "\n";
    out << "population " << checkpoint.population << "\n";
    out << "num_states " << checkpoint.num_states << "\n";
    out << "rng";
    for (const std::uint64_t word : checkpoint.rng.words) out << ' ' << word;
    out << "\n";
    out << "interactions " << checkpoint.interactions << "\n";
    out << "effective " << checkpoint.effective_interactions << "\n";
    out << "last_output_change " << checkpoint.last_output_change << "\n";
    out << "next_silence_check 0\n";
    out << "changed_since_check 1\n";
    out << "pending_skip " << (checkpoint.has_pending_skip ? 1 : 0) << ' '
        << checkpoint.pending_null_skips << "\n";
    if (!checkpoint.interaction_model.empty()) {
        require(checkpoint.interaction_model.find_first_of(" \t\r\n") == std::string::npos,
                "write_checkpoint: interaction model name must not contain whitespace");
        out << "interaction_model " << checkpoint.interaction_model << ' '
            << checkpoint.model_state.size();
        for (const std::uint64_t word : checkpoint.model_state) out << ' ' << word;
        out << "\n";
    }
    if (!checkpoint.shard_rngs.empty()) {
        out << "shard_rngs " << checkpoint.shard_rngs.size();
        for (const Rng::StreamState& shard : checkpoint.shard_rngs)
            for (const std::uint64_t word : shard.words) out << ' ' << word;
        out << "\n";
    }
    if (!checkpoint.counts.empty()) {
        out << "counts " << checkpoint.counts.size();
        for (const std::uint64_t count : checkpoint.counts) out << ' ' << count;
        out << "\n";
    } else {
        out << "agents " << checkpoint.agent_states.size();
        for (const State state : checkpoint.agent_states) out << ' ' << state;
        out << "\n";
    }
    out << "end\n";
    require(static_cast<bool>(out), "write_checkpoint: stream write failed");
}

RunCheckpoint read_checkpoint(std::istream& in) {
    CheckpointParser parser(in);
    RunCheckpoint checkpoint;

    parser.next_line("popproto-checkpoint");
    const std::string magic = parser.token("popproto-checkpoint");
    if (magic != "popproto-checkpoint")
        parser.fail("not a popproto checkpoint (got '" + magic + "')");
    const std::string version = parser.token("format version");
    if (version != "v" + std::to_string(RunCheckpoint::kFormatVersion))
        parser.fail("unsupported checkpoint format version '" + version + "'");
    parser.end_line();

    parser.next_line("engine");
    parser.expect("engine");
    const std::string engine_name = parser.token("engine name");
    if (!observed_engine_from_name(engine_name, checkpoint.engine))
        parser.fail("unknown engine '" + engine_name + "'");
    parser.end_line();

    checkpoint.population = parser.u64_line("population");
    checkpoint.num_states = parser.u64_line("num_states");

    parser.next_line("rng");
    parser.expect("rng");
    for (std::uint64_t& rng_word : checkpoint.rng.words) rng_word = parser.u64("rng word");
    parser.end_line();

    checkpoint.interactions = parser.u64_line("interactions");
    checkpoint.effective_interactions = parser.u64_line("effective");
    checkpoint.last_output_change = parser.u64_line("last_output_change");
    parser.u64_line("next_silence_check");
    parser.u64_line("changed_since_check");

    parser.next_line("pending_skip");
    parser.expect("pending_skip");
    checkpoint.has_pending_skip = parser.u64("pending_skip flag") != 0;
    checkpoint.pending_null_skips = parser.u64("pending_skip remainder");
    parser.end_line();

    parser.next_line("counts");
    std::string payload =
        parser.token("'interaction_model', 'shard_rngs', 'adaptive', 'counts' or 'agents'");
    if (payload == "interaction_model") {
        checkpoint.interaction_model = parser.token("interaction model name");
        const std::uint64_t words = parser.u64("model state length");
        for (std::uint64_t i = 0; i < words; ++i)
            checkpoint.model_state.push_back(parser.u64("model word"));
        parser.end_line();
        parser.next_line("counts");
        payload = parser.token("'shard_rngs', 'adaptive', 'counts' or 'agents'");
    }
    if (payload == "shard_rngs") {
        const std::uint64_t shards = parser.u64("shard count");
        if (shards < 1 || shards > 65536)
            parser.fail("bad shard count '" + std::to_string(shards) + "'");
        checkpoint.shard_rngs.resize(shards);
        for (Rng::StreamState& shard : checkpoint.shard_rngs)
            for (std::uint64_t& shard_word : shard.words)
                shard_word = parser.u64("shard rng word");
        parser.end_line();
        parser.next_line("counts");
        payload = parser.token("'adaptive', 'counts' or 'agents'");
    }
    if (payload == "adaptive") {
        checkpoint.engine = ObservedEngine::kAdaptive;
        parser.u64("adaptive switch count");
        parser.u64("adaptive last switch");
        parser.u64("adaptive next eval");
        parser.end_line();
        parser.next_line("counts");
        payload = parser.token("'counts' or 'agents'");
    }
    if (payload != "counts" && payload != "agents")
        parser.fail("expected 'counts' or 'agents', got '" + payload + "'");
    const std::uint64_t length = parser.u64("payload length");
    const bool counts = payload == "counts";
    const std::uint64_t declared = counts ? checkpoint.num_states : checkpoint.population;
    if (length != declared)
        parser.fail(payload + " length " + std::to_string(length) + " does not match " +
                    (counts ? "num_states " : "population ") + std::to_string(declared));
    for (std::uint64_t i = 0; i < length; ++i) {
        if (counts) {
            checkpoint.counts.push_back(parser.u64("count"));
            continue;
        }
        const std::uint64_t value = parser.u64("agent state");
        if (value > ~State{0})
            parser.fail("agent state '" + std::to_string(value) + "' does not fit 32 bits");
        checkpoint.agent_states.push_back(static_cast<State>(value));
    }
    parser.end_line();

    parser.next_line("end");
    parser.expect("end");
    parser.end_line();
    return checkpoint;
}

std::string checkpoint_to_string(const RunCheckpoint& checkpoint) {
    std::ostringstream out;
    write_checkpoint(out, checkpoint);
    return out.str();
}

RunCheckpoint checkpoint_from_string(const std::string& text) {
    std::istringstream in(text);
    return read_checkpoint(in);
}

void write_file_atomic(const std::string& path, const char* caller,
                       const std::function<void(std::ostream&)>& write) {
    const std::string tmp = path + ".tmp";
    {
        std::ofstream out(tmp, std::ios::trunc);
        if (!out)
            throw std::runtime_error(std::string(caller) + ": cannot open " + tmp + ": " +
                                     std::strerror(errno));
        try {
            write(out);
            out.flush();
            require(static_cast<bool>(out), "flush failed");
        } catch (const std::exception&) {
            // Stream failures (disk full, closed descriptor) surface as a
            // pathless exception or a failed stream; rethrow naming the
            // file and drop the partial temporary.
            const int saved_errno = errno;
            out.close();
            std::remove(tmp.c_str());
            throw std::runtime_error(std::string(caller) + ": cannot write " + tmp + ": " +
                                     std::strerror(saved_errno));
        }
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        const int saved_errno = errno;
        std::remove(tmp.c_str());
        throw std::runtime_error(std::string(caller) + ": cannot rename " + tmp + " to " + path +
                                 ": " + std::strerror(saved_errno));
    }
}

void write_checkpoint_atomic(const std::string& path, const RunCheckpoint& checkpoint) {
    write_file_atomic(path, "write_checkpoint_atomic",
                      [&](std::ostream& out) { write_checkpoint(out, checkpoint); });
}

RunCheckpoint read_checkpoint_file(const std::string& path) {
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("read_checkpoint_file: cannot open " + path + ": " +
                                 std::strerror(errno));
    return read_checkpoint(in);
}

}  // namespace popproto
