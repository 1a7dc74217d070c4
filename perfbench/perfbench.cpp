// perfbench: the repository benchmark.
//
// One single-process program runs one of four closed-loop workloads (one
// caller: each op starts when the previous one and its checks returned)
// through the public API of the mstv library, checks every op's result
// with an oracle outside the timed region, and prints every metric by name
// with its unit.  The last line of stdout is one JSON object,
//
//   {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// holding the end-to-end metrics (--trace 0) or, from a separate traced
// run, the per-layer metrics (--trace 1).  README.md beside this file says
// why each workload exists and which module each metric measures; run.py
// builds this program and runs it.
//
// Usage: perfbench --workload certify|audit|churn|mp --seed N --seconds S
//                  --trace 0|1 --work-dir DIR
//                  [--git-commit SHA] [--source-digest HEX]
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <streambuf>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "dynamic/incremental.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "mst/algorithms.hpp"
#include "mst/predicates.hpp"
#include "obs/export.hpp"
#include "parallel/parallel_for.hpp"
#include "plscheme/gamma_scheme.hpp"
#include "plscheme/mst_scheme.hpp"
#include "plscheme/runner.hpp"
#include "plscheme/spanning_tree_scheme.hpp"
#include "runtime/mp/mp_network.hpp"
#include "runtime/network.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "store/snapshot.hpp"
#include "tree/centroid.hpp"
#include "tree/rooted_tree.hpp"

namespace perfbench {
namespace {

using namespace mstv;

// Fixed by the benchmark's definition (README.md): every workload runs the
// thread pool at 4, and mp adds 4 worker processes.
constexpr std::size_t kThreads = 4;
constexpr std::size_t kWorkers = 4;
constexpr Weight kMaxWeight = Weight{1} << 16;  // the paper's W
constexpr std::size_t kSetupReps = 5;           // setup_s: their median
constexpr double kFlipProb = 1e-4;  // mp: ~60 flipped copies of ~6e5
constexpr std::size_t kTamperEvery = 8;     // audit: 1 op in 8 is tampered
constexpr std::size_t kSampleEvery = 8;     // churn re-mark, mp parity
constexpr std::size_t kOneThreadEvery = 4;  // traced 1-thread baselines
constexpr std::size_t kOffPathOps = 4;      // traced ops per other workload
constexpr std::size_t kCertifyInputs = 4;   // edge lists a certify run cycles

constexpr const char* kWorkloads[] = {"certify", "audit", "churn", "mp"};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  bool trace = false;
  std::string work_dir = ".";
  std::string git_commit = "unknown";
  std::string source_digest = "unknown";
};

/// Vertices of the input graph, random_connected_graph(n, 2n): m ≈ 3n.
std::size_t input_vertices(std::string_view workload) {
  return workload == "churn" ? 30000 : 100000;
}

/// The reference input family: a random spanning tree plus 2n random
/// extra edges, weights uniform in [1, W].
Graph make_input(std::size_t n, Rng& rng) {
  WeightOptions wo;
  wo.max_weight = kMaxWeight;
  return random_connected_graph(n, 2 * n, wo, rng);
}

/// What every workload shares.
struct Env {
  Recorder& rec;
  const MstScheme scheme;
  std::string work_dir;
  bool tracing = false;
};

/// Serves an in-memory string to an istream without copying it.
class MemBuf : public std::streambuf {
 public:
  explicit MemBuf(std::string& s) {
    setg(s.data(), s.data(), s.data() + s.size());
  }
};

/// Runs the thread pool at one worker while alive: the serial baseline.
struct OneThread {
  OneThread() { parallel::set_thread_count(1); }
  ~OneThread() { parallel::set_thread_count(kThreads); }
  OneThread(const OneThread&) = delete;
  OneThread& operator=(const OneThread&) = delete;
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::size_t max_label_bits(const std::vector<Label>& labels) {
  std::size_t bits = 0;
  for (const Label& l : labels) bits = std::max(bits, l.size_bits());
  return bits;
}

store::SnapshotMeta snapshot_meta(const MstScheme& scheme, const Graph& g) {
  store::SnapshotMeta meta;
  meta.scheme = scheme.name();
  meta.root = 0;
  meta.graph_vertices = g.num_vertices();
  meta.graph_edges = g.num_edges();
  return meta;
}

/// Snapshot bytes per label of a label set, as the store would write it.
double snapshot_bytes_per_label(const MstScheme& scheme, const Graph& g,
                                const std::vector<Label>& labels) {
  std::ostringstream os;
  store::write_snapshot(os, labels, snapshot_meta(scheme, g));
  return static_cast<double>(os.str().size()) /
         static_cast<double>(labels.size());
}

/// Parses every label once, field by field as MstScheme::verify parses a
/// label: spanning-tree sublabel, orientation flags, implicit MAX label.
/// Returns how many failed to parse.
std::size_t parse_all(const MstScheme& scheme,
                      const std::vector<Label>& labels) {
  std::size_t bad = 0;
  for (const Label& l : labels) {
    try {
      BitReader r = l.reader();
      (void)read_spanning_tree_sublabel(r);
      (void)read_orient_fields(r);
      (void)scheme.implicit_scheme().read_from(r);
      if (!r.exhausted()) ++bad;
    } catch (const PreconditionError&) {
      ++bad;
    }
  }
  return bad;
}

double messages_per_round(const Graph& g) {
  return 2.0 * static_cast<double>(g.num_edges());
}

struct LabelSize {
  std::size_t max_bits = 0;
  double snapshot_bytes_per_label = 0.0;
};

/// One workload as the loop sees it.  Only op() is timed as an op and
/// setup() as setup_s; the rest runs outside both.
class Workload {
 public:
  virtual ~Workload() = default;

  [[nodiscard]] virtual const char* name() const = 0;
  /// How often setup() runs; setup_s is the median.
  [[nodiscard]] virtual std::size_t setup_reps() const { return kSetupReps; }
  /// Builds the long-lived state the ops use, replacing any earlier one.
  virtual void setup() = 0;
  /// Builds what the oracles compare against; false if setup's own result
  /// is already wrong.
  [[nodiscard]] virtual bool after_setup() = 0;
  /// Untimed, before op i: draws its input, drops the previous output.
  virtual void prepare(std::size_t /*i*/) {}
  virtual void op(std::size_t i) = 0;
  /// The oracle for op i.  False means a wrong result.
  [[nodiscard]] virtual bool check(std::size_t i) = 0;
  /// Traced runs only: times the calls op i makes internally as separate
  /// side calls on the same inputs.  False if they disagree with the op.
  [[nodiscard]] virtual bool side_calls(std::size_t i) = 0;
  [[nodiscard]] virtual LabelSize label_size() const = 0;
  /// One line of workload-specific facts for the human-readable report.
  [[nodiscard]] virtual std::string summary() const = 0;
};

// ---------------------------------------------------------------- certify

/// The marker side end to end: edge-list text held in memory, through
/// read, Kruskal, configuration, mark and snapshot write.  No verifier
/// runs inside the op, so a verifier change must leave this flat.  Ops
/// cycle through kCertifyInputs edge lists drawn from the seed: an op's
/// cost depends on the graph's shape, and a median over several graphs
/// varies less from seed to seed than one graph's.
class Certify final : public Workload {
 public:
  Certify(Env& env, const Graph& g, Rng rng)
      : env_(env),
        path_(env.work_dir + "/certify.snap"),
        edges_(static_cast<double>(g.num_edges())),
        references_(kCertifyInputs) {
    texts_.push_back(edge_list_text(g));
    while (texts_.size() < kCertifyInputs) {
      texts_.push_back(edge_list_text(make_input(g.num_vertices(), rng)));
    }
  }

  [[nodiscard]] const char* name() const override { return "certify"; }

  // No state outlives an op, so setup is the first op: it pays the lazy
  // thread-pool start and first-touch page faults, and is discarded.
  [[nodiscard]] std::size_t setup_reps() const override { return 1; }
  void setup() override { op(0); }

  bool after_setup() override { return check(0); }

  void prepare(std::size_t /*i*/) override { out_.reset(); }

  void op(std::size_t i) override {
    Recorder& rec = env_.rec;
    auto out = std::make_unique<Out>();
    MemBuf buf(texts_[i % texts_.size()]);
    std::istream in(&buf);
    out->g = rec.span("graph.read_edge_list", edges_,
                      [&] { return read_edge_list(in); });
    out->mst = rec.span("mst.kruskal_mst", [&] { return kruskal_mst(out->g); });
    out->cfg.emplace(rec.span("plscheme.make_tree_config", [&] {
      return make_tree_config(out->g, out->mst, 0);
    }));
    out->labels =
        rec.span("plscheme.mark", [&] { return env_.scheme.mark(*out->cfg); });
    out->bytes = rec.span("store.write_snapshot_file", [&] {
      return store::write_snapshot_file(
          path_, out->labels, snapshot_meta(env_.scheme, out->g));
    });
    out_ = std::move(out);
  }

  // The first op on an input must mark labels the verifier accepts; every
  // later op on it must write the same bytes, since marking is
  // deterministic.
  bool check(std::size_t i) override {
    std::string& reference = references_[i % references_.size()];
    if (reference.empty()) {
      reference = read_file(path_);
      size_.max_bits = std::max(size_.max_bits, max_label_bits(out_->labels));
      snapshot_bytes_ += reference.size();
      labels_ += out_->labels.size();
      const VerificationResult r =
          run_verifier(env_.scheme, *out_->cfg, out_->labels);
      return r.accepted && r.rejecting.empty() &&
             out_->bytes == reference.size();
    }
    return out_->bytes == reference.size() && read_file(path_) == reference;
  }

  bool side_calls(std::size_t i) override {
    Recorder& rec = env_.rec;
    const Graph& g = out_->g;
    const std::vector<EdgeId>& mst = out_->mst;
    // The precondition re-check mark() performs on the tree it is given.
    const bool is_min = rec.span("mst.is_mst", [&] {
      return is_spanning_tree(g, mst) && is_mst(g, mst);
    });
    std::optional<RootedTree> tree;
    rec.span("tree.rooted_tree", [&] { tree.emplace(g, mst, 0); });
    // The field mask MstScheme::mark requests for MAX / telescoping labels.
    const SeparatorDecomposition sd = rec.span("tree.decompose", [&] {
      return perfect_separator_decomposition(*tree, kSepFieldMax);
    });
    rec.count("tree.decompose_levels", sd.max_level());
    if (i % kOneThreadEvery == 0) {
      const OneThread one;
      rec.span("parallel.mark_1thread",
               [&] { (void)env_.scheme.mark(*out_->cfg); });
    }
    return is_min;
  }

  // Over the inputs the run reached.
  [[nodiscard]] LabelSize label_size() const override {
    return {size_.max_bits, static_cast<double>(snapshot_bytes_) /
                                static_cast<double>(labels_)};
  }

  [[nodiscard]] std::string summary() const override {
    const auto reached =
        std::count_if(references_.begin(), references_.end(),
                      [](const std::string& r) { return !r.empty(); });
    return std::to_string(reached) +
           " input graphs, each snapshot identical on every op";
  }

 private:
  struct Out {
    Graph g;
    std::vector<EdgeId> mst;
    std::optional<ConfigGraph> cfg;  // points into g: Out never moves
    std::vector<Label> labels;
    std::uint64_t bytes = 0;
  };

  static std::string edge_list_text(const Graph& g) {
    std::ostringstream os;
    write_edge_list(os, g);
    return os.str();
  }

  Env& env_;
  std::string path_;
  double edges_;
  std::vector<std::string> texts_;
  std::unique_ptr<Out> out_;
  std::vector<std::string> references_;  // per input: first op's snapshot
  LabelSize size_;
  std::uint64_t snapshot_bytes_ = 0;  // summed over the references
  std::size_t labels_ = 0;
};

// ------------------------------------------------------------------ audit

/// "Verify forever": mount the snapshot and verify from it.  Snapshot
/// load, block decode, label parse and the per-node check do all the work;
/// the marker does none.  One op in eight checks a tampered configuration
/// against the same snapshot, keeping the reject path in the traffic.
class Audit final : public Workload {
 public:
  Audit(Env& env, const Graph& g, Rng rng)
      : env_(env), g_(g), rng_(rng), path_(env.work_dir + "/audit.snap") {}

  [[nodiscard]] const char* name() const override { return "audit"; }

  void setup() override {
    cfg_.reset();
    cfg_.emplace(make_tree_config(g_, kruskal_mst(g_), 0));
    labels_ = env_.scheme.mark(*cfg_);
    (void)store::write_snapshot_file(path_, labels_,
                                     snapshot_meta(env_.scheme, g_));
  }

  // Redirects one parent pointer so that the states no longer induce an
  // MST.  Soundness then guarantees that every labeling, the snapshot's
  // included, is rejected somewhere.
  bool after_setup() override {
    tampered_.emplace(*cfg_);
    for (int attempt = 0; attempt < 64; ++attempt) {
      const auto v = static_cast<VertexId>(rng_.index(g_.num_vertices()));
      const std::optional<PortNumber> parent = tampered_->state(v).parent_port;
      const std::uint32_t deg = g_.degree(v);
      if (!parent || deg < 2) continue;
      auto port = static_cast<PortNumber>(1 + rng_.index(deg - 1));
      if (port >= *parent) ++port;  // any port but the parent's
      tampered_->state(v).parent_port = port;
      if (!mst_predicate(*tampered_)) return true;
      tampered_->state(v).parent_port = parent;
    }
    return false;
  }

  void op(std::size_t i) override {
    Recorder& rec = env_.rec;
    const ConfigGraph& cfg = tampered(i) ? *tampered_ : *cfg_;
    const store::LabelStore snapshot = rec.span(
        "store.open", [&] { return store::LabelStore::open(path_); });
    result_ = rec.span("plscheme.run_verifier_snapshot", [&] {
      return run_verifier(env_.scheme, cfg, snapshot);
    });
  }

  // True configurations are accepted everywhere; the tampered one is
  // rejected by the same nodes every time.
  bool check(std::size_t i) override {
    if (!tampered(i)) return result_.accepted && result_.rejecting.empty();
    if (result_.accepted || result_.rejecting.empty()) return false;
    if (tampered_rejectors_.empty()) tampered_rejectors_ = result_.rejecting;
    return result_.rejecting == tampered_rejectors_;
  }

  bool side_calls(std::size_t i) override {
    Recorder& rec = env_.rec;
    const auto n = static_cast<double>(g_.num_vertices());
    const double messages = messages_per_round(g_);
    const store::LabelStore snapshot = store::LabelStore::open(path_);
    const std::vector<Label> decoded = rec.span(
        "store.decode_all", n, [&] { return snapshot.labels().decode_all(); });
    const std::size_t bad = rec.span(
        "labeling.parse", n, [&] { return parse_all(env_.scheme, decoded); });
    rec.span("plscheme.run_verifier", messages,
             [&] { (void)run_verifier(env_.scheme, *cfg_, labels_); });
    if (i % kOneThreadEvery == 0) {
      const OneThread one;
      rec.span("parallel.verify_1thread", messages,
               [&] { (void)run_verifier(env_.scheme, *cfg_, labels_); });
    }
    return bad == 0 && decoded == labels_;
  }

  [[nodiscard]] LabelSize label_size() const override {
    return {max_label_bits(labels_),
            static_cast<double>(std::filesystem::file_size(path_)) /
                static_cast<double>(g_.num_vertices())};
  }

  [[nodiscard]] std::string summary() const override {
    if (tampered_rejectors_.empty()) return "no tampered op ran";
    return "tampered ops rejected by the same " +
           std::to_string(tampered_rejectors_.size()) + " node(s) each time";
  }

 private:
  static bool tampered(std::size_t i) {
    return i % kTamperEvery == kTamperEvery - 1;
  }

  Env& env_;
  const Graph& g_;
  Rng rng_;
  std::string path_;
  std::optional<ConfigGraph> cfg_;
  std::optional<ConfigGraph> tampered_;
  std::vector<Label> labels_;
  VerificationResult result_;
  std::vector<VertexId> tampered_rejectors_;
};

// ------------------------------------------------------------------ churn

enum class Move {
  RaiseNonTree,    // re-weight a non-tree edge upward; it stays out
  LowerTree,       // lighten a tree edge; the tree is kept
  RaiseTree,       // make a tree edge heavier; it may swap out
  InsertLightest,  // a weight-1 link, the lightest edge: an MST swap
  DeleteNonTree,
};

/// The churn mix, 40/20/10/20/10 %, dealt in shuffled decks of ten so
/// that every run holds the same mix and only the order is random: the
/// median op of a run sits between cheap and label-repairing moves, so
/// a mix that drifted with the seed would move it.
constexpr Move kChurnDeck[] = {
    Move::RaiseNonTree, Move::RaiseNonTree,   Move::RaiseNonTree,
    Move::RaiseNonTree, Move::LowerTree,      Move::LowerTree,
    Move::RaiseTree,    Move::InsertLightest, Move::InsertLightest,
    Move::DeleteNonTree};

/// One update of the given kind.  Draws depend on the marker's current
/// tree, so the stream is a function of the seed and the updates before.
EdgeUpdate draw_update(const IncrementalMarker& marker, Move move, Rng& rng) {
  const Graph& g = marker.graph();
  const RootedTree& t = marker.tree();
  const auto non_tree_edge = [&] {
    EdgeId e = 0;
    do {
      e = static_cast<EdgeId>(rng.index(g.num_edges()));
    } while (t.contains_edge(e));
    return g.edge(e);
  };
  const auto non_root = [&] {
    VertexId v = 0;
    do {
      v = static_cast<VertexId>(rng.index(g.num_vertices()));
    } while (t.is_root(v));
    return v;
  };
  const auto heavier = [&](Weight w) { return w + 1 + rng.index(1u << 10); };

  switch (move) {
    case Move::RaiseNonTree: {
      const Edge e = non_tree_edge();
      return EdgeUpdate::weight_change(e.u, e.v, heavier(e.w));
    }
    case Move::LowerTree: {
      VertexId v = non_root();
      while (t.parent_weight(v) <= 1) v = non_root();
      const Weight w = t.parent_weight(v);
      return EdgeUpdate::weight_change(v, t.parent(v),
                                       w - 1 - rng.index(w - 1));
    }
    case Move::RaiseTree: {
      const VertexId v = non_root();
      return EdgeUpdate::weight_change(v, t.parent(v),
                                       heavier(t.parent_weight(v)));
    }
    case Move::InsertLightest: {
      VertexId a = 0, b = 0;
      do {
        a = static_cast<VertexId>(rng.index(g.num_vertices()));
        b = static_cast<VertexId>(rng.index(g.num_vertices()));
      } while (a == b || g.find_edge(a, b).has_value());
      return EdgeUpdate::insert(a, b, 1);
    }
    case Move::DeleteNonTree:
      break;
  }
  const Edge e = non_tree_edge();
  return EdgeUpdate::erase(e.u, e.v);
}

/// Writes beside reads: each op repairs the labels for one update and
/// re-verifies every node.  The only workload that runs src/dynamic.
class Churn final : public Workload {
 public:
  Churn(Env& env, const Graph& g, Rng rng) : env_(env), g_(g), rng_(rng) {}

  [[nodiscard]] const char* name() const override { return "churn"; }

  void setup() override {
    net_.reset();
    marker_.reset();
    marker_ = std::make_unique<IncrementalMarker>(env_.scheme, g_,
                                                  kruskal_mst(g_), 0);
    net_ = std::make_unique<SimNetwork>(marker_->config(), env_.scheme);
    net_->labels() = marker_->labels();
  }

  bool after_setup() override {
    size_ = {max_label_bits(marker_->labels()),
             snapshot_bytes_per_label(env_.scheme, marker_->graph(),
                                      marker_->labels())};
    // apply() mutates the marker, so the traced run times it as a side
    // call on a twin marker fed the same update stream.
    if (env_.tracing) {
      twin_ = std::make_unique<IncrementalMarker>(env_.scheme, g_,
                                                  kruskal_mst(g_), 0);
    }
    return run_verifier(env_.scheme, net_->config(), net_->labels()).accepted;
  }

  void prepare(std::size_t i) override {
    const std::size_t deck = std::size(kChurnDeck);
    if (i % deck == 0) {
      moves_.assign(std::begin(kChurnDeck), std::end(kChurnDeck));
      rng_.shuffle(moves_);
    }
    update_ = draw_update(*marker_, moves_[i % deck], rng_);
  }

  void op(std::size_t /*i*/) override {
    result_ = env_.rec.span("runtime.update_and_repair", [&] {
      return update_and_repair(*marker_, *net_, update_);
    });
  }

  // Every repaired configuration verifies.  On a fixed sample of ops the
  // labels are bit-identical to a fresh mark(), the contract in
  // dynamic/incremental.hpp.
  bool check(std::size_t i) override {
    const RepairStats& r = result_.repair;
    env_.rec.count("dynamic.labels_repaired",
                   static_cast<double>(r.labels_repaired));
    env_.rec.count("dynamic.structural", r.structural_change ? 1.0 : 0.0);
    ++updates_;
    swaps_ += r.swapped ? 1 : 0;
    if (!result_.verification.accepted) return false;
    return i % kSampleEvery != 0 ||
           env_.scheme.mark(marker_->config()) == marker_->labels();
  }

  bool side_calls(std::size_t /*i*/) override {
    Recorder& rec = env_.rec;
    rec.span("dynamic.apply", [&] { (void)twin_->apply(update_); });
    rec.span("plscheme.run_verifier", messages_per_round(marker_->graph()),
             [&] {
               (void)run_verifier(env_.scheme, net_->config(), net_->labels());
             });
    return twin_->labels() == marker_->labels();
  }

  [[nodiscard]] LabelSize label_size() const override { return size_; }

  [[nodiscard]] std::string summary() const override {
    std::ostringstream os;
    os << "MST swaps " << swaps_ << " of " << updates_ << " updates ("
       << (updates_ ? 100.0 * static_cast<double>(swaps_) /
                          static_cast<double>(updates_)
                    : 0.0)
       << " %)";
    return os.str();
  }

 private:
  Env& env_;
  const Graph& g_;
  Rng rng_;
  std::unique_ptr<IncrementalMarker> marker_;
  std::unique_ptr<SimNetwork> net_;
  std::unique_ptr<IncrementalMarker> twin_;
  std::vector<Move> moves_;  // the current deck
  EdgeUpdate update_;
  UpdateResult result_;
  LabelSize size_;
  std::size_t updates_ = 0;
  std::size_t swaps_ = 0;
};

// --------------------------------------------------------------------- mp

/// One verification round over faulty channels through the forked-worker
/// backend: batched socket exchange, per-worker verification of received
/// copies, flip plans.  The only path through src/runtime/mp.
class Mp final : public Workload {
 public:
  Mp(Env& env, const Graph& g, Rng rng)
      : env_(env), g_(g), rng_(rng), rng_before_(rng) {}

  [[nodiscard]] const char* name() const override { return "mp"; }

  void setup() override {
    net_.reset();  // reaps the previous setup's workers first
    net_ = std::make_unique<MpNetwork>(
        make_tree_config(g_, kruskal_mst(g_), 0), env_.scheme, kWorkers);
    env_.rec.span("mp.install_marker_labels",
                  [&] { net_->install_marker_labels(); });
  }

  bool after_setup() override {
    // The in-process reference that runtime/backend.hpp holds mp to.
    sim_ = std::make_unique<SimNetwork>(net_->config(), env_.scheme);
    sim_->labels() = net_->labels();
    size_ = {max_label_bits(net_->labels()),
             snapshot_bytes_per_label(env_.scheme, g_, net_->labels())};
    return net_->workers() == kWorkers;
  }

  void prepare(std::size_t /*i*/) override { rng_before_ = rng_; }

  void op(std::size_t /*i*/) override {
    stats_ = env_.rec.span("runtime.mp_round", [&] {
      return net_->verification_round_with_channel_faults(rng_, kFlipProb);
    });
  }

  // No round degrades.  On a fixed sample of rounds (every round when
  // traced), SimNetwork replays the same flips and must count the same
  // messages, bits and rejectors.
  bool check(std::size_t i) override {
    env_.rec.count("mp.wire_bytes",
                   static_cast<double>(stats_.wire_payload_bytes));
    env_.rec.count("mp.rejectors", static_cast<double>(stats_.rejecting));
    wire_bytes_ = stats_.wire_payload_bytes;
    rejectors_ += stats_.rejecting;
    ++rounds_;
    if (stats_.degraded) return false;
    if (!env_.tracing && i % kSampleEvery != 0) return true;
    Rng replay = rng_before_;
    const RoundStats ref = env_.rec.span("mp.sim_round", [&] {
      return sim_->verification_round_with_channel_faults(replay, kFlipProb);
    });
    return ref.messages == stats_.messages && ref.bits == stats_.bits &&
           ref.accepted == stats_.accepted &&
           ref.rejectors == stats_.rejectors;
  }

  bool side_calls(std::size_t /*i*/) override {
    Recorder& rec = env_.rec;
    const auto n = static_cast<double>(g_.num_vertices());
    const std::size_t bad = rec.span("labeling.parse", n, [&] {
      return parse_all(env_.scheme, net_->labels());
    });
    rec.span("plscheme.run_verifier", messages_per_round(g_), [&] {
      (void)run_verifier(env_.scheme, net_->config(), net_->labels());
    });
    return bad == 0;
  }

  [[nodiscard]] LabelSize label_size() const override { return size_; }

  [[nodiscard]] std::string summary() const override {
    std::ostringstream os;
    os << "wire payload " << wire_bytes_ << " bytes per round, "
       << (rounds_ ? static_cast<double>(rejectors_) /
                         static_cast<double>(rounds_)
                   : 0.0)
       << " rejectors per round";
    return os.str();
  }

 private:
  Env& env_;
  const Graph& g_;
  Rng rng_;
  Rng rng_before_;  // the stream as the current op found it
  std::unique_ptr<MpNetwork> net_;
  std::unique_ptr<SimNetwork> sim_;
  RoundStats stats_;
  LabelSize size_;
  std::size_t wire_bytes_ = 0;
  std::size_t rejectors_ = 0;
  std::size_t rounds_ = 0;
};

std::unique_ptr<Workload> make_workload(std::string_view name, Env& env,
                                        const Graph& g, Rng rng) {
  if (name == "certify") return std::make_unique<Certify>(env, g, rng);
  if (name == "audit") return std::make_unique<Audit>(env, g, rng);
  if (name == "churn") return std::make_unique<Churn>(env, g, rng);
  if (name == "mp") return std::make_unique<Mp>(env, g, rng);
  return nullptr;
}

// ------------------------------------------------------------------- loop

struct Tally {
  std::size_t attempted = 0;
  std::size_t failed = 0;

  void record(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Runs setup `reps` times; returns each one's seconds.
std::vector<double> run_setups(Workload& w, Recorder& rec, bool tracing,
                               std::size_t reps) {
  std::vector<double> seconds;
  rec.workload = w.name();
  rec.op = -1;
  rec.enabled = tracing;
  for (std::size_t r = 0; r < reps; ++r) {
    const std::uint32_t root = tracing ? rec.open("setup") : 0;
    const auto t0 = Clock::now();
    w.setup();
    const auto t1 = Clock::now();
    if (tracing) rec.close(root, t0, t1, true);
    seconds.push_back(ms_between(t0, t1) / 1e3);
  }
  rec.enabled = false;
  return seconds;
}

/// The closed loop: runs ops until `deadline` has passed and at least
/// `span_every` ops ran, or until `max_ops` ran.  Returns the latency of
/// every op that completed.  When tracing, every op gets a root span from
/// the loop's own timestamps, and ops with i % span_every == span_every - 1
/// also get spans around their calls; with span_every = 2 the other half
/// is the untraced reference for obs.trace_overhead_pct.
std::vector<double> run_ops(Workload& w, Recorder& rec, bool tracing,
                            std::size_t span_every, Clock::time_point deadline,
                            std::size_t max_ops, Tally& tally) {
  std::vector<double> op_ms;
  rec.workload = w.name();
  for (std::size_t i = 0;
       i < max_ops && (i < span_every || Clock::now() < deadline); ++i) {
    rec.op = static_cast<std::int64_t>(i);
    rec.enabled = false;
    w.prepare(i);
    const bool spanned = tracing && i % span_every == span_every - 1;
    const std::uint32_t root = tracing ? rec.open("op") : 0;
    rec.enabled = spanned;
    bool ok = true;
    const auto t0 = Clock::now();
    try {
      w.op(i);
    } catch (const std::exception& e) {
      ok = false;
      std::fprintf(stderr, "%s op %zu threw: %s\n", w.name(), i, e.what());
    }
    const auto t1 = Clock::now();
    if (tracing) rec.close(root, t0, t1, spanned);
    rec.enabled = tracing;
    if (ok) {
      op_ms.push_back(ms_between(t0, t1));
      try {
        ok = w.check(i) && (!tracing || w.side_calls(i));
      } catch (const std::exception& e) {
        ok = false;
        std::fprintf(stderr, "%s op %zu check threw: %s\n", w.name(), i,
                     e.what());
      }
      if (!ok) std::fprintf(stderr, "%s op %zu: wrong result\n", w.name(), i);
    }
    tally.record(ok);
  }
  rec.enabled = false;
  return op_ms;
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

/// Peak resident set of this process or of any child it reaped (mp's
/// workers), in MB of 2^20 bytes.
double peak_rss_mb() {
  rusage self{};
  rusage children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

std::vector<Metric> end_to_end(const std::vector<double>& setup_s,
                               const std::vector<double>& op_ms,
                               const LabelSize& size) {
  return {
      {"setup_s", median(setup_s), "s"},
      {"op_ms_p50", median(op_ms), "ms"},
      {"ops_per_s", ops_per_second(op_ms), "1/s"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
      {"label_bits_max", static_cast<double>(size.max_bits), "bits"},
      {"snapshot_bytes_per_label", size.snapshot_bytes_per_label, "bytes"},
  };
}

/// Per-layer metrics from the traced run's spans.  A layer the run's own
/// workload calls is measured there; any other layer comes from the short
/// off-path runs of the other workloads on the same input.
std::vector<Metric> per_layer(const SpanIndex& ix, const char* own) {
  const auto ms = [&](const char* name) {
    std::vector<double> v = ix.ms(name, own);
    return v.empty() ? ix.ms(name) : v;
  };
  const auto ns = [&](const char* name) {
    std::vector<double> v = ix.ns_per_unit(name, own);
    return v.empty() ? ix.ns_per_unit(name) : v;
  };
  const auto counts = [&](const char* name) {
    std::vector<double> v = ix.counts(name, own);
    return v.empty() ? ix.counts(name) : v;
  };

  // Derived per certify op: mark minus the parts timed as side calls.
  std::vector<double> serialize;
  {
    const auto mark = ix.ms_by_op("plscheme.mark", "certify");
    const auto is_min = ix.ms_by_op("mst.is_mst", "certify");
    const auto rooted = ix.ms_by_op("tree.rooted_tree", "certify");
    const auto decompose = ix.ms_by_op("tree.decompose", "certify");
    for (const auto& [op, mark_ms] : mark) {
      if (is_min.count(op) && rooted.count(op) && decompose.count(op)) {
        serialize.push_back(derived_serialize_ms(
            mark_ms, is_min.at(op), rooted.at(op), decompose.at(op)));
      }
    }
  }
  // Derived per churn op: the op minus its twin's apply().
  std::vector<double> ship_verify;
  {
    const auto apply = ix.ms_by_op("dynamic.apply", "churn");
    for (const auto& [op, op_ms] : ix.ms_by_op("op", "churn")) {
      if (apply.count(op)) {
        ship_verify.push_back(derived_ship_verify_ms(op_ms, apply.at(op)));
      }
    }
  }
  // Derived per mp round: wire payload bytes over the round's time.
  std::vector<double> exchange;
  {
    const auto bytes = ix.counts_by_op("mp.wire_bytes", "mp");
    for (const auto& [op, op_ms] : ix.ms_by_op("op", "mp")) {
      if (bytes.count(op)) {
        exchange.push_back(derived_mb_per_s(bytes.at(op), op_ms));
      }
    }
  }
  const std::vector<double> apply = ms("dynamic.apply");

  return {
      {"graph.read_ns_per_edge", median(ns("graph.read_edge_list")), "ns"},
      {"mst.kruskal_ms", median(ms("mst.kruskal_mst")), "ms"},
      {"mst.is_mst_ms", median(ms("mst.is_mst")), "ms"},
      {"tree.rooted_tree_ms", median(ms("tree.rooted_tree")), "ms"},
      {"tree.decompose_ms", median(ms("tree.decompose")), "ms"},
      {"tree.decompose_levels", median(counts("tree.decompose_levels")),
       "count"},
      {"plscheme.config_ms", median(ms("plscheme.make_tree_config")), "ms"},
      {"plscheme.mark_ms", median(ms("plscheme.mark")), "ms"},
      {"labeling.serialize_ms", median(serialize), "ms"},
      {"labeling.parse_ns_per_label", median(ns("labeling.parse")), "ns"},
      {"store.write_ms", median(ms("store.write_snapshot_file")), "ms"},
      {"store.open_ms", median(ms("store.open")), "ms"},
      {"store.decode_ns_per_label", median(ns("store.decode_all")), "ns"},
      {"plscheme.verify_ns_per_message", median(ns("plscheme.run_verifier")),
       "ns"},
      {"parallel.mark_speedup",
       median(ms("parallel.mark_1thread")) / median(ms("plscheme.mark")), "x"},
      {"parallel.verify_speedup",
       median(ix.ns_per_unit("parallel.verify_1thread", "audit")) /
           median(ix.ns_per_unit("plscheme.run_verifier", "audit")),
       "x"},
      {"dynamic.apply_ms_p50", quantile(apply, 0.5), "ms"},
      {"dynamic.apply_ms_p90", quantile(apply, 0.9), "ms"},
      {"dynamic.labels_repaired_mean", mean(counts("dynamic.labels_repaired")),
       "count"},
      {"dynamic.structural_share", mean(counts("dynamic.structural")),
       "ratio"},
      {"runtime.ship_verify_ms_p50", median(ship_verify), "ms"},
      {"mp.install_ms", median(ms("mp.install_marker_labels")), "ms"},
      {"mp.sim_round_ms", median(ms("mp.sim_round")), "ms"},
      {"mp.exchange_mb_per_s", median(exchange), "MB/s"},
      {"mp.rejectors_per_round", mean(counts("mp.rejectors")), "count"},
      {"mp.wire_bytes_per_round", median(counts("mp.wire_bytes")), "bytes"},
      {"obs.trace_overhead_pct",
       overhead_pct(median(ix.op_ms(own, true)), median(ix.op_ms(own, false))),
       "%"},
  };
}

// ------------------------------------------------------------- provenance

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned int regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned int i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    char brand[sizeof regs + 1] = {};
    std::memcpy(brand, regs, sizeof regs);
    std::string s(brand);
    const auto first = s.find_first_not_of(' ');
    const auto last = s.find_last_not_of(' ');
    if (first != std::string::npos) return s.substr(first, last - first + 1);
  }
#endif
  return "unknown";
}

std::size_t online_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return std::thread::hardware_concurrency();
}

/// Everything a result depends on besides the code under test, so that
/// numbers from different builds or hosts are never compared silently.
std::string provenance_json(const Options& opt, const Graph& g) {
  const std::string build_type = PERFBENCH_BUILD_TYPE;
  const std::string sanitize = PERFBENCH_SANITIZE;
#ifdef MSTV_OBS_DISABLED
  const bool obs_disabled = true;
#else
  const bool obs_disabled = false;
#endif
  std::string why_not;
  if (!sanitize.empty()) {
    why_not = "sanitizer build (" + sanitize + ")";
  } else if (build_type != "RelWithDebInfo" && build_type != "Release") {
    why_not = "unoptimized build (" + build_type + ")";
  }
  std::ostringstream os;
  const auto str = [](const std::string& s) {
    return "\"" + obs::json_escape(s) + "\"";
  };
  os << "{\"workload\": " << str(opt.workload) << ", \"seed\": " << opt.seed
     << ", \"seconds\": " << opt.seconds << ", \"n\": " << g.num_vertices()
     << ", \"m\": " << g.num_edges() << ", \"W\": " << kMaxWeight
     << ", \"threads\": " << kThreads
     << ", \"workers\": " << (opt.workload == "mp" ? kWorkers : 0)
     << ", \"nproc\": " << online_cpus() << ", \"cpu_model\": "
     << str(cpu_model()) << ", \"compiler\": " << str(PERFBENCH_COMPILER)
     << ", \"build_type\": " << str(build_type)
     << ", \"mstv_obs_disabled\": " << (obs_disabled ? "true" : "false")
     << ", \"mstv_sanitize\": " << str(sanitize)
     << ", \"git_commit\": " << str(opt.git_commit)
     << ", \"source_digest\": " << str(opt.source_digest)
     << ", \"comparable\": " << (why_not.empty() ? "true" : "false");
  if (!why_not.empty()) os << ", \"not_comparable_because\": " << str(why_not);
  os << "}";
  return os.str();
}

// ----------------------------------------------------------------- output

/// Shortest decimal that reads back as exactly `v`: all its digits.
std::string json_number(double v) {
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  return std::string(buf, res.ptr);
}

void print_result(const std::vector<Metric>& metrics, const Tally& tally) {
  std::ostringstream os;
  os << "{\"correct\": " << (tally.failed == 0 ? "true" : "false")
     << ", \"attempted\": " << tally.attempted
     << ", \"failed\": " << tally.failed << ", \"metrics\": {";
  const char* sep = "";
  for (const Metric& m : metrics) {
    os << sep << "\"" << m.name << "\": {\"value\": " << json_number(m.value)
       << ", \"unit\": \"" << m.unit << "\"}";
    sep = ", ";
  }
  os << "}}";
  std::printf("%s\n", os.str().c_str());
}

std::optional<Options> parse_args(int argc, char** argv) {
  if (argc % 2 == 0) return std::nullopt;
  Options o;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string_view key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (key == "--seed") {
      o.seed = std::stoull(value);
    } else if (key == "--seconds") {
      o.seconds = std::stod(value);
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return std::nullopt;
      o.trace = value == "1";
    } else if (key == "--work-dir") {
      o.work_dir = value;
    } else if (key == "--git-commit") {
      o.git_commit = value;
    } else if (key == "--source-digest") {
      o.source_digest = value;
    } else {
      return std::nullopt;
    }
  }
  const bool known = std::any_of(
      std::begin(kWorkloads), std::end(kWorkloads),
      [&](const char* w) { return o.workload == w; });
  if (!have_workload || !known || !(o.seconds > 0)) return std::nullopt;
  return o;
}

int run(const Options& opt) {
  parallel::set_thread_count(kThreads);

  // Input generation: before any timing, counted by no metric but RSS.
  const std::size_t n = input_vertices(opt.workload);
  Rng rng(opt.seed);
  const Graph g = make_input(n, rng);
  const Rng stream = rng.split();

  const std::string provenance = provenance_json(opt, g);
  std::printf("provenance %s\n", provenance.c_str());

  Recorder rec;
  Env env{rec, MstScheme{}, opt.work_dir, opt.trace};
  Tally tally;
  std::unique_ptr<Workload> w = make_workload(opt.workload, env, g, stream);
  const std::vector<double> setup_s =
      run_setups(*w, rec, opt.trace, w->setup_reps());
  if (!w->after_setup()) {
    std::fprintf(stderr, "%s: setup produced a wrong result\n", w->name());
    tally.record(false);
  }
  const auto loop_start = Clock::now();
  const std::vector<double> op_ms = run_ops(
      *w, rec, opt.trace, opt.trace ? 2 : 1,
      loop_start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(opt.seconds)),
      std::numeric_limits<std::size_t>::max(), tally);
  const double loop_s = ms_between(loop_start, Clock::now()) / 1e3;
  if (op_ms.empty()) {
    std::fprintf(stderr, "%s: no op completed\n", w->name());
    return 1;
  }
  const LabelSize size = w->label_size();
  const char* const own = w->name();
  std::printf("%s seed %llu: n=%zu m=%zu, %zu ops in %.1f s; %s\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              g.num_vertices(), g.num_edges(), op_ms.size(), loop_s,
              w->summary().c_str());

  std::vector<Metric> metrics;
  if (!opt.trace) {
    w.reset();  // reaps mp's workers, so their peak RSS is counted
    metrics = end_to_end(setup_s, op_ms, size);
    // Reported, not gated: a 20 s run has 100 ops (ten beyond p90) only
    // on churn, and every gated metric must come from every workload.
    std::printf("op_ms_p90 %.6g ms from %zu ops, %s\n", quantile(op_ms, 0.9),
                op_ms.size(),
                tail_has_ten_beyond(op_ms.size(), 90)
                    ? "ten or more of them beyond it"
                    : "fewer than ten beyond it: indicative only");
  } else {
    w.reset();
    Rng off_path = stream;
    for (const char* other : kWorkloads) {
      if (opt.workload == other) continue;
      std::unique_ptr<Workload> o = make_workload(other, env, g, off_path.split());
      (void)run_setups(*o, rec, true, 1);
      if (!o->after_setup()) {
        std::fprintf(stderr, "%s: setup produced a wrong result\n", other);
        tally.record(false);
      }
      (void)run_ops(*o, rec, true, 1, Clock::time_point::max(), kOffPathOps,
                    tally);
    }
    metrics = per_layer(SpanIndex(rec), own);
    const std::string trace_path = opt.work_dir + "/trace-" + opt.workload +
                                   "-seed" + std::to_string(opt.seed) +
                                   ".json";
    std::ofstream out(trace_path);
    rec.write_chrome_trace(out, provenance);
    std::printf("trace written to %s (%zu spans)\n", trace_path.c_str(),
                rec.spans().size());
  }

  for (const Metric& m : metrics) {
    std::printf("  %-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
  }
  std::printf("  %-32s %14.6g ratio (%zu failed of %zu attempted)\n",
              "error_rate", error_rate(tally.failed, tally.attempted),
              tally.failed, tally.attempted);
  print_result(metrics, tally);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  std::optional<perfbench::Options> opt;
  try {
    opt = perfbench::parse_args(argc, argv);
  } catch (const std::exception&) {
    opt.reset();
  }
  if (!opt) {
    std::fprintf(stderr,
                 "usage: perfbench --workload certify|audit|churn|mp "
                 "--seed N --seconds S --trace 0|1 --work-dir DIR "
                 "[--git-commit SHA] [--source-digest HEX]\n");
    return 2;
  }
  try {
    return perfbench::run(*opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
