#include "scenario/scenario.hpp"

#include <algorithm>
#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <type_traits>
#include <utility>
#include <variant>

#include "dist/distributed_engine.hpp"
#include "eam/lennard_jones.hpp"
#include "eam/zhou.hpp"
#include "lattice/grain_boundary.hpp"
#include "util/error.hpp"
#include "util/string_util.hpp"

namespace wsmd::scenario {

namespace {

[[noreturn]] void bad_entry(const Deck& deck, const DeckEntry& e,
                            const std::string& why) {
  // line == 0 marks an appended CLI override — pointing at the deck file
  // would send the user grepping for a key that is not in it.
  const std::string where =
      e.line > 0 ? deck.source + ":" + std::to_string(e.line)
                 : "<cli override>";
  WSMD_REQUIRE(false, where << ": key '" << e.key << "' = '" << e.value
                            << "': " << why);
  std::abort();  // unreachable
}

/// Split the value and require exactly `n` whitespace-separated tokens.
std::vector<std::string> tokens_n(const Deck& deck, const DeckEntry& e,
                                  std::size_t n) {
  auto t = split_whitespace(e.value);
  if (t.size() != n) {
    bad_entry(deck, e,
              "expected " + std::to_string(n) + " value(s), got " +
                  std::to_string(t.size()));
  }
  return t;
}

/// Every real-valued key is finite: NaN slips through any `v <= 0` check.
double parse_double_token(const Deck& deck, const DeckEntry& e,
                          const std::string& token) {
  double v = 0.0;
  if (!parse_double_strict(token, v) || !std::isfinite(v)) {
    bad_entry(deck, e, "not a finite number");
  }
  return v;
}

long parse_long_token(const Deck& deck, const DeckEntry& e,
                      const std::string& token) {
  long v = 0;
  if (!parse_long_strict(token, v)) bad_entry(deck, e, "not an integer");
  return v;
}

/// %.17g round-trips FP64 exactly through the strict parser.
std::string num(double v) { return format("%.17g", v); }

// ---- the thermostat schedule: keys that accumulate stages ----------------

/// Schedule keys, indexed like Stage::Kind; `nve` is an alias of `run`.
constexpr const char* kStageKeys[] = {"thermalize", "equilibrate", "ramp",
                                      "quench",     "run",         "nve"};

/// The Stage::Kind of a schedule key, or -1 for any other key.
long stage_index(const std::string& key) {
  const auto it = std::find(std::begin(kStageKeys), std::end(kStageKeys), key);
  if (it == std::end(kStageKeys)) return -1;
  return std::min<long>(it - std::begin(kStageKeys), 4);
}

/// `thermalize = T`, `equilibrate|quench = T STEPS`, `ramp = T0 T1 STEPS`,
/// `run|nve = STEPS`.
Stage parse_stage(const Deck& deck, const DeckEntry& e) {
  Stage st;
  st.kind = static_cast<Stage::Kind>(stage_index(e.key));
  const std::size_t temps = st.kind == Stage::Kind::kRamp  ? 2
                            : st.kind == Stage::Kind::kRun ? 0
                                                           : 1;
  const bool stepped = st.kind != Stage::Kind::kThermalize;
  const auto t = tokens_n(deck, e, temps + (stepped ? 1 : 0));
  for (std::size_t i = 0; i < temps; ++i) {
    const double v = parse_double_token(deck, e, t[i]);
    if (v < 0.0) bad_entry(deck, e, "temperature must be >= 0 K");
    (i == 0 ? st.t0 : st.t1) = v;
  }
  if (stepped) {
    if (temps == 1) st.t1 = st.t0;  // equilibrate, quench: a fixed target
    st.steps = parse_long_token(deck, e, t[temps]);
    if (st.steps < 0) bad_entry(deck, e, "step count must be >= 0");
  }
  return st;
}

std::string stage_value(const Stage& st) {
  switch (st.kind) {
    case Stage::Kind::kThermalize: return num(st.t0);
    case Stage::Kind::kEquilibrate:
    case Stage::Kind::kQuench:
      return num(st.t0) + " " + std::to_string(st.steps);
    case Stage::Kind::kRamp:
      return num(st.t0) + " " + num(st.t1) + " " + std::to_string(st.steps);
    case Stage::Kind::kRun: return std::to_string(st.steps);
  }
  return "";
}

// ---- backend specs: name[:M[xN]] ------------------------------------------

/// A positive count at `p` (strtol syntax); returns its end, or nullptr.
const char* read_count(const char* p, long& out) {
  char* end = nullptr;
  out = std::strtol(p, &end, 10);
  return end == p || out < 1 || out > INT_MAX ? nullptr : end;
}

/// Parse `spec` into `bs`; returns why it is malformed ("" when it is not).
/// Plain `sharded` means auto threads and plain `ranks` means ranks:2.
std::string read_backend(const std::string& spec, BackendSpec& bs) {
  const std::size_t colon = spec.find(':');
  const std::string name = spec.substr(0, colon);
  if (name == "reference") {
    bs.backend = engine::Backend::kReference;
  } else if (name == "sharded") {
    bs.backend = engine::Backend::kShardedWafer;
    bs.threads = 0;
  } else if (name == "ranks") {
    bs.backend = engine::Backend::kRanks;
  } else if (spec == "wafer") {
    bs.backend = engine::Backend::kWafer;
  } else {
    return "unknown backend '" + spec +
           "' (want reference|reference:N|wafer|sharded|sharded:N|ranks:M|"
           "ranks:MxN)";
  }
  if (colon == std::string::npos) return "";
  // reference:N and sharded:N count threads; ranks:M[xN] counts rank
  // processes, then optionally shard threads inside each rank.
  const bool ranks = bs.backend == engine::Backend::kRanks;
  long m = 0, n = 0;
  const char* end = read_count(spec.c_str() + colon + 1, m);
  if (end != nullptr && ranks && *end == 'x') end = read_count(end + 1, n);
  if (end == nullptr || *end != '\0' || (ranks && m > dist::kMaxRanks)) {
    return format("bad count in '%s' (want reference:N, sharded:N, ranks:M "
                  "or ranks:MxN; N >= 1, M in 1..%d)",
                  spec.c_str(), dist::kMaxRanks);
  }
  (ranks ? bs.ranks : bs.threads) = static_cast<int>(m);
  if (n > 0) bs.threads = static_cast<int>(n);
  return "";
}

// ---- the deck-key table -----------------------------------------------------

/// Where a key's value lives in a Scenario (one alternative per field type).
using Ref = std::variant<int*, long*, unsigned long*, unsigned long long*,
                         double*, std::string*, telemetry::HealthAction*,
                         std::vector<std::string>*, std::array<int, 3>*>;

enum Kind {
  kInt,        ///< one integer in `domain` ("lo.." or "lo..hi")
  kReal,       ///< one finite number, in `domain` ("lo..hi") when given
  kPositive,   ///< one finite number > 0
  kFraction,   ///< one finite number in [0, 1)
  kChoice,     ///< one of `domain` ("a|b|c"); an integer field stores its index
  kText,       ///< free text: a name, a path
  kTriple,     ///< three integers in `domain`
  kProbeList,  ///< distinct probe kinds
  kBackend,    ///< a parse_backend spec
  kSchedule,   ///< not a key: where the canonical deck writes the stages
};

enum Flag : unsigned {
  kIfSet = 1,       ///< the canonical deck writes it only when not default
  kPinned = 2,      ///< part of the trajectory: a resume may not change it
  kProbeState = 4,  ///< pinned while the checkpoint carries probe state
  kNonEmpty = 8,    ///< kText: "" is rejected
  kOff = 16,        ///< the value `off` restores the default
};

/// What must hold for a key to mean anything. The parser rejects a key
/// whose requirement fails, at its deck line; the canonical deck leaves
/// such a key out. kWith/kWithout only keep the canonical deck to what a
/// run uses (xyz_every without xyz is inert, not wrong).
enum Need {
  kNone,
  kProbes,         ///< observe.probes is set
  kProbe,          ///< probe `arg` is enabled
  kDetector,       ///< health detector key `arg` is not off
  kRanks,          ///< a ranks: backend
  kGrainBoundary,  ///< geometry = grain_boundary
  kCrystal,        ///< any other geometry
  kPartner,        ///< key `arg` is in the deck too
  kWith,           ///< written only when key `arg` is set; never rejected
  kWithout,        ///< written only when key `arg` is unset; never rejected
};

struct Requirement {
  Need need = kNone;
  const char* arg = nullptr;
};

/// One deck key. Its default is the field's value in a default-constructed
/// Scenario.
struct Key {
  const char* name;
  Kind kind;
  Ref (*field)(Scenario&) = nullptr;
  const char* domain = "";
  unsigned flags = 0;
  Requirement needs[2] = {};
};

#define F(member) [](Scenario& s) -> Ref { return &s.member; }
constexpr const char* kActions = "off|warn|abort";  // HealthAction order
static_assert(static_cast<int>(telemetry::HealthAction::kAbort) == 2);

/// Every deck key, in canonical-deck order. scenario.hpp documents each.
constexpr Key kKeys[] = {
    {"name", kText, F(name)},
    {"element", kText, F(element), "", kPinned},
    {"pair_style", kChoice, F(pair_style), "eam|lj", kPinned},
    {"potential", kChoice, F(potential), "tabulated|analytic", kPinned},
    {"geometry", kChoice, F(geometry), "slab|bulk|grain_boundary"},
    {"tilt_angle_deg", kReal, F(tilt_angle_deg), "", 0, {{kGrainBoundary}}},
    {"gb_atoms", kInt, F(gb_target_atoms), "16..", 0, {{kGrainBoundary}}},
    {"replicate", kTriple, F(replicate), "1..", kIfSet, {{kCrystal}}},
    {"scale", kInt, F(scale), "1..", 0,
     {{kCrystal}, {kWithout, "replicate"}}},
    {"vacancy_fraction", kFraction, F(vacancy_fraction), "", kIfSet,
     {{kCrystal}}},
    {"backend", kBackend, F(backend)},
    {"dt", kPositive, F(dt), "", kPinned},
    {"swap_interval", kInt, F(swap_interval), "0..", kPinned},
    {"rescale_interval", kInt, F(rescale_interval), "1..", kPinned},
    {"seed", kInt, F(seed), "0.."},
    // Written whenever it applies: every ranks checkpoint carries it, and
    // shm is the only halo carrier there is.
    {"dist.transport", kChoice, F(dist_transport), "shm", 0, {{kRanks}}},
    // Counted in whole milliseconds, which must be >= 1 and fit an int.
    {"dist.timeout", kReal, F(dist_timeout_s), "0.001..2147483", kIfSet,
     {{kRanks}}},
    {"dist.kill_rank", kInt, F(dist_kill_rank), "0..", kIfSet,
     {{kRanks}, {kPartner, "dist.kill_step"}}},
    {"dist.kill_step", kInt, F(dist_kill_step), "1..", kIfSet,
     {{kRanks}, {kPartner, "dist.kill_rank"}}},
    {nullptr, kSchedule},
    {"xyz", kText, F(xyz_path), "", kIfSet},
    {"xyz_every", kInt, F(xyz_every), "1..", 0, {{kWith, "xyz"}}},
    {"thermo", kText, F(thermo_path), "", kIfSet},
    {"thermo_every", kInt, F(thermo_every), "1..", 0, {{kWith, "thermo"}}},
    {"thermo_format", kChoice, F(thermo_format), "csv|jsonl", 0,
     {{kWith, "thermo"}}},
    {"summary", kText, F(summary_path), "", kIfSet},
    {"observe.probes", kProbeList, F(observe.probes), "",
     kIfSet | kProbeState},
    {"observe.every", kInt, F(observe.every), "1..", kProbeState,
     {{kProbes}}},
    {"observe.rdf_every", kInt, F(observe.rdf_every), "1..",
     kIfSet | kProbeState, {{kProbe, "rdf"}}},
    {"observe.msd_every", kInt, F(observe.msd_every), "1..",
     kIfSet | kProbeState, {{kProbe, "msd"}}},
    {"observe.vacf_every", kInt, F(observe.vacf_every), "1..",
     kIfSet | kProbeState, {{kProbe, "vacf"}}},
    {"observe.defects_every", kInt, F(observe.defects_every), "1..",
     kIfSet | kProbeState, {{kProbe, "defects"}}},
    {"observe.format", kChoice, F(observe.format), "csv|jsonl", 0,
     {{kProbes}}},
    {"observe.prefix", kText, F(observe.prefix), "", kIfSet | kNonEmpty,
     {{kProbes}}},
    {"observe.rdf_rcut", kPositive, F(observe.rdf_rcut), "",
     kIfSet | kProbeState, {{kProbe, "rdf"}}},
    {"observe.rdf_bins", kInt, F(observe.rdf_bins), "2..100000", kProbeState,
     {{kProbe, "rdf"}}},
    {"observe.csp_threshold", kPositive, F(observe.csp_threshold), "",
     kProbeState, {{kProbe, "defects"}}},
    {"observe.gb_axis", kChoice, F(observe.gb_axis), "x|y|z",
     kIfSet | kProbeState, {{kProbe, "defects"}, {kGrainBoundary}}},
    {"checkpoint.every", kInt, F(checkpoint_every), "0..", kIfSet},
    {"checkpoint.path", kText, F(checkpoint_path), "", kNonEmpty,
     {{kPartner, "checkpoint.every"}}},
    {"telemetry.trace", kText, F(telemetry_trace_path), "",
     kIfSet | kNonEmpty | kOff},
    {"telemetry.metrics", kText, F(telemetry_metrics_path), "",
     kIfSet | kNonEmpty | kOff},
    {"telemetry.snapshot", kPositive, F(telemetry_snapshot_s), "",
     kIfSet | kOff},
    {"health.nan", kChoice, F(health.nan), kActions, kIfSet},
    {"health.energy_drift", kChoice, F(health.energy_drift), kActions, kIfSet},
    {"health.energy_band", kPositive, F(health.energy_band), "", kIfSet,
     {{kDetector, "health.energy_drift"}}},
    {"health.temperature", kChoice, F(health.temperature), kActions, kIfSet},
    {"health.temperature_band", kPositive, F(health.temperature_band_K), "",
     kIfSet, {{kDetector, "health.temperature"}}},
    {"health.stall", kChoice, F(health.stall), kActions, kIfSet},
    {"health.stall_timeout", kPositive, F(health.stall_timeout_s), "", kIfSet,
     {{kDetector, "health.stall"}}},
    {"health.thermo_tail", kInt, F(health.thermo_tail), "1..100000", kIfSet},
    {"health.bundle", kText, F(health.bundle_dir), "", kIfSet | kNonEmpty},
    {"health.inject_nan", kInt, F(health.inject_nan_step), "0..", kIfSet,
     {{kDetector, "health.nan"}}},
};
#undef F

/// The row of `name`, or nullptr (schedule keys have no row).
const Key* find_key(const std::string& name) {
  for (const Key& k : kKeys) {
    if (k.name != nullptr && name == k.name) return &k;
  }
  return nullptr;
}

const Scenario kDefaults;

/// `k`'s field in `sc`, for reading: the one accessor serves both the
/// parser (which writes) and the emitter (which reads a const Scenario).
Ref read(const Key& k, const Scenario& sc) {
  return k.field(const_cast<Scenario&>(sc));
}

/// The canonical text of `k` in `sc`: what the canonical deck writes.
std::string text(const Key& k, const Scenario& sc) {
  return std::visit(
      [&k](const auto* p) -> std::string {
        using T = std::remove_cv_t<std::remove_pointer_t<decltype(p)>>;
        if constexpr (std::is_same_v<T, std::string>) {
          return *p;
        } else if constexpr (std::is_same_v<T, double>) {
          return num(*p);
        } else if constexpr (std::is_same_v<T, std::array<int, 3>>) {
          return format("%d %d %d", (*p)[0], (*p)[1], (*p)[2]);
        } else if constexpr (std::is_same_v<T, std::vector<std::string>>) {
          std::string out;
          for (const auto& s : *p) out += (out.empty() ? "" : " ") + s;
          return out;
        } else if (k.kind == kChoice) {  // an index; -1 (unset) reads ""
          const auto names = split(k.domain, '|');
          const auto i = static_cast<std::size_t>(*p);
          return i < names.size() ? names[i] : "";
        } else if constexpr (std::is_integral_v<T>) {
          return std::to_string(*p);
        }
        return "";
      },
      read(k, sc));
}

bool is_set(const Key& k, const Scenario& sc) {
  return text(k, sc) != text(k, kDefaults);
}

/// Parse `e` by its key's kind and store it in `sc`.
void store(const Deck& deck, const DeckEntry& e, const Key& k, Scenario& sc) {
  const Ref field = k.field(sc);
  if (k.flags & kOff && e.value == "off") {
    std::visit(
        [&k](auto* p) { *p = *std::get<decltype(p)>(read(k, kDefaults)); },
        field);
    return;
  }
  // Integers (counts and choice indices) go into whatever integer type the
  // field has, if they fit it.
  const auto store_integer = [&](long v) {
    std::visit(
        [&](auto* p) {
          using T = std::remove_pointer_t<decltype(p)>;
          if constexpr (std::is_integral_v<T>) {
            if (!std::in_range<T>(v)) bad_entry(deck, e, "out of range");
          }
          if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
            *p = static_cast<T>(v);
          }
        },
        field);
  };
  long lo = 0, hi = LONG_MAX;
  std::sscanf(k.domain, "%ld..%ld", &lo, &hi);
  const std::string range = hi == LONG_MAX
                                ? format("want an integer >= %ld", lo)
                                : format("want an integer in %ld..%ld", lo, hi);
  const auto one = [&] { return tokens_n(deck, e, 1)[0]; };
  switch (k.kind) {
    case kInt: {
      const long v = parse_long_token(deck, e, one());
      if (v < lo || v > hi) bad_entry(deck, e, range);
      store_integer(v);
      return;
    }
    case kReal:
    case kPositive:
    case kFraction: {
      const double v = parse_double_token(deck, e, one());
      double real_lo = -HUGE_VAL, real_hi = HUGE_VAL;
      if (std::sscanf(k.domain, "%lf..%lf", &real_lo, &real_hi) == 2 &&
          (v < real_lo || v > real_hi)) {
        bad_entry(deck, e, format("want a number in %s", k.domain));
      }
      if (k.kind == kPositive && v <= 0.0) bad_entry(deck, e, "want > 0");
      if (k.kind == kFraction && (v < 0.0 || v >= 1.0)) {
        bad_entry(deck, e, "want [0, 1)");
      }
      *std::get<double*>(field) = v;
      return;
    }
    case kChoice: {
      const auto names = split(k.domain, '|');
      const auto it = std::find(names.begin(), names.end(), e.value);
      if (it == names.end()) bad_entry(deck, e, format("want %s", k.domain));
      if (auto* s = std::get_if<std::string*>(&field)) {
        **s = e.value;
      } else {
        store_integer(it - names.begin());
      }
      return;
    }
    case kText:
      if (k.flags & kNonEmpty && e.value.empty()) {
        bad_entry(deck, e, "must not be empty");
      }
      *std::get<std::string*>(field) = e.value;
      return;
    case kTriple: {
      const auto t = tokens_n(deck, e, 3);
      for (std::size_t a = 0; a < 3; ++a) {
        const long v = parse_long_token(deck, e, t[a]);
        if (v < lo || v > INT_MAX) bad_entry(deck, e, range);
        (*std::get<std::array<int, 3>*>(field))[a] = static_cast<int>(v);
      }
      return;
    }
    case kProbeList: {
      std::vector<std::string> probes;
      for (const auto& kind : split_whitespace(e.value)) {
        if (!obs::is_probe_kind(kind)) {
          bad_entry(deck, e,
                    "unknown probe '" + kind + "' (want rdf|msd|vacf|defects)");
        }
        if (std::find(probes.begin(), probes.end(), kind) != probes.end()) {
          bad_entry(deck, e, "duplicate probe '" + kind + "'");
        }
        probes.push_back(kind);
      }
      if (probes.empty()) {
        bad_entry(deck, e, "expected at least one of rdf|msd|vacf|defects");
      }
      *std::get<std::vector<std::string>*>(field) = std::move(probes);
      return;
    }
    case kBackend: {
      BackendSpec bs;
      const std::string why = read_backend(e.value, bs);
      if (!why.empty()) bad_entry(deck, e, why);
      *std::get<std::string*>(field) = e.value;
      return;
    }
    case kSchedule:
      return;
  }
}

/// Why `r` fails in `sc`, or "" when it holds. `seen` is the parser's last
/// deck entry per key; without it (emitting) a partner counts when set.
std::string unmet(const Requirement& r, const Scenario& sc,
                  const std::vector<const DeckEntry*>* seen) {
  const std::string arg = r.arg != nullptr ? r.arg : "";
  const Key* other = r.arg != nullptr ? find_key(arg) : nullptr;
  const bool gb = sc.geometry == "grain_boundary";
  switch (r.need) {
    case kNone: return "";
    case kProbes:
      return sc.observe.enabled() ? "" : "observe.* keys need observe.probes";
    case kProbe:
      return sc.observe.has(arg) ? "" : "requires the " + arg + " probe";
    case kDetector:
      if (text(*other, sc) != "off") return "";
      return "requires " + arg + " = warn|abort";
    case kRanks:
      if (parse_backend(sc.backend).backend == engine::Backend::kRanks) {
        return "";
      }
      return "dist.* keys need backend = ranks:M (got '" + sc.backend + "')";
    case kGrainBoundary: return gb ? "" : "requires geometry=grain_boundary";
    case kCrystal: return gb ? "does not apply to geometry=grain_boundary" : "";
    case kPartner:
      if (seen ? !(*seen)[other - kKeys] : !is_set(*other, sc)) {
        return "needs " + arg;
      }
      return "";
    case kWith: return seen || is_set(*other, sc) ? "" : "needs " + arg;
    case kWithout: return seen || !is_set(*other, sc) ? "" : "conflicts";
  }
  return "";
}

bool emitted(const Key& k, const Scenario& sc) {
  for (const Requirement& r : k.needs) {
    if (!unmet(r, sc, nullptr).empty()) return false;
  }
  return !(k.flags & kIfSet) || is_set(k, sc);
}

}  // namespace

const char* Stage::name() const { return kStageKeys[static_cast<int>(kind)]; }

BackendSpec parse_backend(const std::string& spec) {
  BackendSpec bs;
  const std::string why = read_backend(spec, bs);
  WSMD_REQUIRE(why.empty(), why);
  return bs;
}

long Scenario::total_steps() const {
  long total = 0;
  for (const auto& st : schedule) total += st.steps;
  return total;
}

std::vector<std::string> deck_key_names() {
  std::vector<std::string> names;
  for (const Key& k : kKeys) {
    if (k.kind == kSchedule) {
      names.insert(names.end(), std::begin(kStageKeys), std::end(kStageKeys));
    } else {
      names.emplace_back(k.name);
    }
  }
  return names;
}

std::string deck_value(const Scenario& sc, const std::string& key) {
  const Key* k = find_key(key);
  WSMD_REQUIRE(k != nullptr, "no deck key '" << key << "' with one value");
  return text(*k, sc);
}

std::vector<std::string> resume_pinned_keys(bool probe_state) {
  std::vector<std::string> names;
  for (const Key& k : kKeys) {
    if (k.flags & kPinned || (probe_state && k.flags & kProbeState)) {
      names.emplace_back(k.name);
    }
  }
  return names;
}

Scenario scenario_from_deck(const Deck& deck) {
  Scenario sc;
  // The last entry of each key, so cross-key rules blame its deck line.
  std::vector<const DeckEntry*> seen(std::size(kKeys), nullptr);
  // Schedule keys accumulate stages in deck order, so plain last-wins
  // cannot apply to them. Instead, whole-schedule replacement: if any
  // schedule key arrives as an override (line == 0, appended by the CLI),
  // the overrides define the entire schedule and the file's stages are
  // dropped — `wsmd deck run=50` means "run 50 NVE steps", not "append
  // another 50 to whatever the deck did".
  const bool overrides_define_schedule =
      std::any_of(deck.entries.begin(), deck.entries.end(),
                  [](const DeckEntry& e) {
                    return e.line == 0 && stage_index(e.key) >= 0;
                  });
  for (const auto& e : deck.entries) {
    if (stage_index(e.key) >= 0) {
      if (!overrides_define_schedule || e.line == 0) {
        sc.schedule.push_back(parse_stage(deck, e));
      }
      continue;
    }
    const Key* k = find_key(e.key);
    if (k == nullptr) bad_entry(deck, e, "unknown key");
    store(deck, e, *k, sc);
    seen[k - kKeys] = &e;
  }
  // Data-shaped cross-key rules: a key whose requirement fails is dead
  // configuration (or half of a pair) and is rejected at its deck line.
  for (std::size_t i = 0; i < seen.size(); ++i) {
    if (seen[i] == nullptr) continue;
    for (const Requirement& r : kKeys[i].needs) {
      const std::string why = unmet(r, sc, &seen);
      if (!why.empty()) bad_entry(deck, *seen[i], why);
    }
  }
  const auto seen_entry = [&seen](const char* name) {
    return seen[find_key(name) - kKeys];
  };

  // Fail on an unknown element now, not steps into a run; the lookup table
  // depends on the pair style.
  if (sc.pair_style == "lj") {
    eam::lj_parameters(sc.element);
    // The bicrystal generator and the paper slabs are Zhou-EAM metal
    // geometries; LJ scenarios size their crystal explicitly.
    WSMD_REQUIRE(sc.geometry != "grain_boundary",
                 deck.source << ": pair_style=lj does not support "
                                "geometry=grain_boundary (the bicrystal "
                                "builder is EAM-metal only)");
    WSMD_REQUIRE(sc.replicate[0] > 0,
                 deck.source << ": pair_style=lj needs an explicit "
                                "'replicate' (the paper slabs are EAM "
                                "workloads)");
  } else {
    eam::zhou_parameters(sc.element);
  }

  // Velocity rescaling cannot heat a motionless system (scaling zero stays
  // zero), so a thermostat stage before any source of kinetic energy would
  // silently run at 0 K. Thermalize provides KE directly; any stepped
  // stage may convert potential energy (e.g. an unrelaxed grain boundary)
  // and is given the benefit of the doubt.
  bool may_have_ke = false;
  for (const auto& st : sc.schedule) {
    const bool thermostats = st.kind == Stage::Kind::kEquilibrate ||
                             st.kind == Stage::Kind::kRamp ||
                             st.kind == Stage::Kind::kQuench;
    WSMD_REQUIRE(!(thermostats && std::max(st.t0, st.t1) > 0.0 &&
                   !may_have_ke),
                 deck.source << ": stage '" << st.name()
                             << "' thermostats a 0 K system — add a "
                                "'thermalize' stage before it");
    if ((st.kind == Stage::Kind::kThermalize && st.t0 > 0.0) ||
        st.steps > 0) {
      may_have_ke = true;
    }
  }

  // The killed rank must exist under the backend's rank count.
  if (sc.dist_kill_rank >= 0) {
    const int ranks = parse_backend(sc.backend).ranks;
    if (sc.dist_kill_rank >= ranks) {
      bad_entry(deck, *seen_entry("dist.kill_rank"),
                format("kill rank %d is outside backend %s (ranks 0..%d)",
                       sc.dist_kill_rank, sc.backend.c_str(), ranks - 1));
    }
  }

  // Name-derived defaults (the name key may come after these in the deck).
  if (sc.checkpoint_every > 0 && sc.checkpoint_path.empty()) {
    sc.checkpoint_path = sc.name + ".ckpt";
  }
  if (sc.telemetry_trace_path == "auto") {
    sc.telemetry_trace_path = sc.name + ".trace.json";
  }
  if (sc.telemetry_metrics_path == "auto") {
    sc.telemetry_metrics_path = sc.name + ".metrics.jsonl";
  }
  // Snapshots stream into the metrics file: a cadence with metrics
  // explicitly off is a contradiction, and with metrics merely absent the
  // metrics file is implied (same auto default as telemetry.metrics=auto).
  if (sc.telemetry_snapshot_s > 0.0) {
    const DeckEntry* metrics = seen_entry("telemetry.metrics");
    if (metrics != nullptr && metrics->value == "off") {
      bad_entry(deck, *seen_entry("telemetry.snapshot"),
                "telemetry.snapshot streams into the metrics file, but "
                "telemetry.metrics is off");
    }
    if (sc.telemetry_metrics_path.empty()) {
      sc.telemetry_metrics_path = sc.name + ".metrics.jsonl";
    }
  }

  // Default: a defect probe on a bicrystal tracks the boundary plane along
  // the generator's GB normal (y) unless the deck says otherwise.
  if (sc.observe.has("defects") && sc.geometry == "grain_boundary" &&
      sc.observe.gb_axis < 0) {
    sc.observe.gb_axis = 1;
  }
  // Probe-geometry mismatch, caught eagerly where the box is knowable at
  // parse time: minimum-image probes need every periodic box length >=
  // 2 * their search radius, and only geometry=bulk is periodic.
  if (sc.observe.enabled() && sc.geometry == "bulk" && sc.replicate[0] > 0) {
    const double a0 = material_facts(sc).lattice_constant;
    // `blame_key` is the deck line at fault (nullptr / absent falls back
    // to the observe.probes line); `fix_hint` must only name knobs that
    // actually control the radius.
    const auto require_box_fits = [&](const char* probe,
                                      const char* blame_key, double rcut,
                                      const char* fix_hint) {
      const DeckEntry* entry = seen_entry("observe.probes");
      if (blame_key != nullptr && seen_entry(blame_key) != nullptr) {
        entry = seen_entry(blame_key);
      }
      for (std::size_t a = 0; a < 3; ++a) {
        const double len = sc.replicate[a] * a0;
        if (len < 2.0 * rcut) {
          bad_entry(deck, *entry,
                    format("%s search radius %.4g A needs periodic box "
                           ">= %.4g A, but axis %zu is %.4g A — %s",
                           probe, rcut, 2.0 * rcut, a, len, fix_hint));
        }
      }
    };
    const obs::Material mat{a0, 0};
    if (sc.observe.has("rdf")) {
      require_box_fits("rdf", "observe.rdf_rcut",
                       obs::effective_rdf_rcut(sc.observe, mat),
                       "enlarge 'replicate' or shrink observe.rdf_rcut");
    }
    if (sc.observe.has("defects")) {
      // The CSP radius is fixed at 1.2 a0 (no deck knob): only the box
      // can give.
      require_box_fits("defects (csp)", nullptr,
                       obs::effective_csp_rcut(mat), "enlarge 'replicate'");
    }
  }
  return sc;
}

Deck deck_from_scenario(const Scenario& sc) {
  // Collected as raw pairs and numbered by deck_from_entries — the single
  // authority for file-style line numbering, so overrides appended later
  // (line 0) get the usual whole-schedule-replacement semantics.
  std::vector<std::pair<std::string, std::string>> entries;
  for (const Key& k : kKeys) {
    if (k.kind == kSchedule) {
      for (const auto& st : sc.schedule) {
        entries.emplace_back(st.name(), stage_value(st));
      }
    } else if (emitted(k, sc)) {
      entries.emplace_back(k.name, text(k, sc));
    }
  }
  return deck_from_entries(entries, "<scenario>");
}

MaterialFacts material_facts(const Scenario& sc) {
  if (sc.pair_style == "lj") {
    const auto m = eam::lj_parameters(sc.element);
    return MaterialFacts{m.structure, m.lattice_constant()};
  }
  const auto params = eam::zhou_parameters(sc.element);
  return MaterialFacts{params.structure, params.lattice_constant()};
}

obs::Material material_for(const Scenario& sc) {
  const auto facts = material_facts(sc);
  return obs::Material{facts.lattice_constant,
                       facts.structure == "fcc" ? 12 : 8};
}

lattice::Structure build_structure(const Scenario& sc, StructureInfo* info) {
  const auto facts = material_facts(sc);
  StructureInfo local;
  lattice::Structure s;
  if (sc.geometry == "grain_boundary") {
    lattice::GrainBoundaryParams gb;
    gb.element = sc.element;
    gb.tilt_angle_deg = sc.tilt_angle_deg;
    auto built = lattice::make_grain_boundary_with_atom_count(
        gb, sc.gb_target_atoms);
    local.gb_fused_atoms = built.fused_atoms;
    s = std::move(built.structure);
  } else {
    const bool bulk = sc.geometry == "bulk";
    const std::array<bool, 3> periodic = bulk
                                             ? std::array<bool, 3>{true, true, true}
                                             : std::array<bool, 3>{false, false, false};
    if (sc.replicate[0] > 0) {
      const auto cell =
          lattice::UnitCell::of(facts.structure, facts.lattice_constant);
      s = lattice::replicate(cell, sc.replicate[0], sc.replicate[1],
                             sc.replicate[2], /*type=*/0, periodic);
    } else {
      WSMD_REQUIRE(!bulk,
                   "geometry=bulk needs an explicit 'replicate' (the paper "
                   "slabs are open-boundary)");
      s = lattice::paper_slab(sc.element, sc.scale);
    }
  }
  if (sc.vacancy_fraction > 0.0) {
    // Defect stream is derived from — but independent of — the thermal
    // seed, so changing vacancy_fraction never perturbs the velocities.
    Rng vac_rng(sc.seed ^ 0xD1CEB00CULL);
    local.vacancies_removed =
        lattice::apply_vacancies(s, sc.vacancy_fraction, vac_rng);
  }
  local.atoms = s.size();
  if (info) *info = local;
  return s;
}

std::unique_ptr<engine::Engine> build_engine(
    const Scenario& sc, const lattice::Structure& s,
    const std::string& backend_override, const std::string& scratch_dir) {
  const BackendSpec bs = parse_backend(
      backend_override.empty() ? sc.backend : backend_override);
  eam::EamPotentialPtr potential;
  if (sc.pair_style == "lj") {
    potential = std::make_shared<eam::LennardJones>(
        eam::LennardJones::for_element(sc.element));
  } else {
    const auto params = eam::zhou_parameters(sc.element);
    potential =
        std::make_shared<eam::ZhouEam>(sc.element, params.paper_cutoff());
  }

  engine::EngineConfig config;
  const bool tabulated = sc.potential == "tabulated";
  config.reference.dt = sc.dt;
  config.reference.tabulated = tabulated;
  // `reference:N` spins up the deterministic threaded force sweep; the
  // trajectory is bitwise-identical at any N (see md/force_eam.hpp).
  config.reference.threads = bs.threads;
  config.wafer.dt = sc.dt;
  config.wafer.tabulated = tabulated;
  config.wafer.swap_interval = sc.swap_interval;
  config.wafer.mapping.cell_size = material_facts(sc).lattice_constant;
  config.threads = bs.threads;
  config.ranks = bs.ranks;
  config.rank_threads = bs.threads;
  // The dist.timeout row bounds the rounded count to 1..INT_MAX ms.
  config.dist_timeout_ms =
      static_cast<int>(std::lround(sc.dist_timeout_s * 1000.0));
  config.dist_kill_rank = sc.dist_kill_rank;
  config.dist_kill_step = sc.dist_kill_step;
  config.dist_scratch = scratch_dir;
  return engine::make_engine(bs.backend, s, std::move(potential), config);
}

}  // namespace wsmd::scenario
