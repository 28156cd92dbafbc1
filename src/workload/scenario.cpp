#include "workload/scenario.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <utility>

namespace vlsip::workload {

namespace {

Status invalid(const std::string& why) {
  return Status(StatusCode::kInvalidArgument, why);
}

// ---- stream generation -----------------------------------------------------

std::uint64_t next_gap(const ScenarioPack& pack, std::size_t index,
                       std::size_t* burst_left, Xoshiro256& rng) {
  if (pack.mean_gap == 0) return 0;
  switch (pack.arrival) {
    case ArrivalModel::kSteady:
      return 1 + rng.uniform(2 * pack.mean_gap);
    case ArrivalModel::kBursty: {
      if (*burst_left > 0) {
        --*burst_left;
        return 0;
      }
      const std::size_t burst =
          1 + static_cast<std::size_t>(
                  rng.geometric(1.0 / static_cast<double>(pack.mean_burst)));
      *burst_left = burst - 1;
      // The whole burst shares one long gap, holding the average rate.
      return 1 + rng.uniform(2 * pack.mean_gap *
                             static_cast<std::uint64_t>(pack.mean_burst));
    }
    case ArrivalModel::kDiurnal: {
      const std::size_t period = pack.diurnal_period;
      const std::size_t half = period / 2;
      const std::size_t pos = index % period;
      const std::size_t tri = pos < half ? pos : period - pos;
      // Gap swept 50%..150% of the mean over one period (integer math).
      const std::uint64_t pct = 50 + 100 * tri / half;
      return 1 + rng.uniform(2 * pack.mean_gap * pct / 100);
    }
  }
  return 0;
}

StatusOr<JobStream> generate(ScenarioPack pack) {
  JobStream stream;
  stream.pack = std::move(pack);
  const ScenarioPack& p = stream.pack;

  Xoshiro256 rng(p.seed);
  std::map<std::pair<int, int>, CompiledKernel> cache;
  std::uint32_t total_weight = 0;
  for (std::size_t i = 0; i < kKernelKinds; ++i) total_weight += p.mix[i];

  std::uint64_t arrival = 0;
  std::size_t burst_left = 0;
  stream.jobs.reserve(p.jobs);
  for (std::size_t i = 0; i < p.jobs; ++i) {
    // Kernel family by mix weight, size by the span distributions.
    std::uint64_t draw = rng.uniform(total_weight);
    std::size_t kind_index = 0;
    while (draw >= p.mix[kind_index]) {
      draw -= p.mix[kind_index];
      ++kind_index;
    }
    KernelSpec spec;
    spec.kind = static_cast<KernelKind>(kind_index);
    spec.width =
        p.width_min +
        static_cast<int>(rng.uniform(
            static_cast<std::uint64_t>(p.width_max - p.width_min) + 1));
    const std::size_t tokens =
        p.tokens_min + static_cast<std::size_t>(
                           rng.uniform(p.tokens_max - p.tokens_min + 1));

    const auto key = std::make_pair(static_cast<int>(spec.kind), spec.width);
    auto it = cache.find(key);
    if (it == cache.end()) {
      lang::CompileError error;
      auto kernel = build_kernel(spec, &error);
      if (!kernel.ok()) {
        return invalid("kernel " + std::string(to_string(spec.kind)) +
                       std::to_string(spec.width) +
                       " failed to lower: " + error.message);
      }
      it = cache.emplace(key, std::move(*kernel)).first;
    }
    const CompiledKernel& kernel = it->second;

    TimedJob timed;
    timed.kernel = kernel.label;
    timed.job = make_job(kernel, tokens, rng,
                         kernel.label + "#" + std::to_string(i));
    if (p.churn > 0.0 && rng.bernoulli(p.churn)) {
      // Inflate the cluster request past the kernel's natural size so
      // consecutive batches keep refusing different-width regions.
      timed.job.requested_clusters =
          std::min<std::size_t>(kernel.recommended_clusters + 4 +
                                    static_cast<std::size_t>(rng.uniform(12)),
                                48);
    }
    arrival += next_gap(p, i, &burst_left, rng);
    timed.arrival = arrival;
    if (p.deadline_pressure > 0.0 && rng.bernoulli(p.deadline_pressure)) {
      timed.deadline = arrival + p.deadline_allowance;
    }
    stream.jobs.push_back(std::move(timed));
  }
  return stream;
}

// ---- pack-spec parsing -----------------------------------------------------

std::vector<std::string> split_ws(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string tok;
  while (in >> tok) out.push_back(tok);
  return out;
}

/// Decimal digits only: no sign, no whitespace, no suffix, not empty.
bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || !std::all_of(s.begin(), s.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      })) {
    return false;
  }
  char* end = nullptr;
  errno = 0;
  const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
  if (errno != 0 || end != s.c_str() + s.size()) return false;
  *out = static_cast<std::uint64_t>(v);
  return true;
}

/// "key=value" -> true + parts; anything else false.
bool split_kv(const std::string& tok, std::string* key, std::string* value) {
  const auto eq = tok.find('=');
  if (eq == std::string::npos || eq == 0) return false;
  *key = tok.substr(0, eq);
  *value = tok.substr(eq + 1);
  return true;
}

}  // namespace

const char* to_string(ArrivalModel model) {
  switch (model) {
    case ArrivalModel::kSteady:
      return "steady";
    case ArrivalModel::kBursty:
      return "bursty";
    case ArrivalModel::kDiurnal:
      return "diurnal";
  }
  return "?";
}

Status ScenarioPackBuilder::validate() const {
  const ScenarioPack& p = pack_;
  if (p.name.empty()) return invalid("pack name must not be empty");
  if (p.jobs < 1) return invalid("a pack needs at least one job");
  if (p.width_min < 1 || p.width_min > p.width_max) {
    return invalid("pack widths need 1 <= min <= max");
  }
  if (p.width_max > 32) {
    return invalid("pack width_max must be <= 32 (the largest kernel "
                   "datapath the default chip hosts)");
  }
  if (p.tokens_min < 1 || p.tokens_min > p.tokens_max) {
    return invalid("pack tokens need 1 <= min <= max");
  }
  if (p.tokens_max > 64) return invalid("pack tokens_max must be <= 64");
  std::uint32_t total = 0;
  for (std::size_t i = 0; i < kKernelKinds; ++i) total += p.mix[i];
  if (total == 0) {
    return invalid("the kernel mix must give at least one family a "
                   "nonzero weight");
  }
  if (p.deadline_pressure < 0.0 || p.deadline_pressure > 1.0) {
    return invalid("deadline pressure must be in [0, 1]");
  }
  if (p.deadline_pressure > 0.0 && p.deadline_allowance == 0) {
    return invalid("deadline pressure without an allowance is dead config "
                   "— every pressured job would cancel on arrival");
  }
  if (p.churn < 0.0 || p.churn > 1.0) {
    return invalid("churn must be in [0, 1]");
  }
  if (p.arrival == ArrivalModel::kBursty && p.mean_burst < 1) {
    return invalid("bursty arrivals need mean_burst >= 1");
  }
  if (p.arrival == ArrivalModel::kDiurnal && p.diurnal_period < 2) {
    return invalid("diurnal arrivals need a period of >= 2 jobs");
  }
  return Status();
}

ScenarioPack ScenarioPackBuilder::build() const {
  const Status s = validate();
  VLSIP_REQUIRE(s.ok(), s.to_string());
  return pack_;
}

StatusOr<ScenarioPack> ScenarioPackBuilder::try_build() const {
  const Status s = validate();
  if (!s.ok()) return s;
  return pack_;
}

JobStream JobStreamBuilder::build() const {
  auto stream = try_build();
  VLSIP_REQUIRE(stream.ok(), stream.status().to_string());
  return std::move(*stream);
}

StatusOr<JobStream> JobStreamBuilder::try_build() const {
  ScenarioPackBuilder checked;
  checked.raw() = pack_;
  auto pack = checked.try_build();
  if (!pack.ok()) return pack.status();
  return generate(std::move(*pack));
}

StatusOr<ScenarioPack> parse_pack(const std::string& text) {
  ScenarioPackBuilder builder;
  ScenarioPack& p = builder.raw();
  std::istringstream in(text);
  std::string line;
  int line_no = 0;
  auto fail = [&line_no](const std::string& why) {
    return invalid("line " + std::to_string(line_no) + ": " + why);
  };
  while (std::getline(in, line)) {
    ++line_no;
    const auto hash = line.find('#');
    if (hash != std::string::npos) line.resize(hash);
    const auto toks = split_ws(line);
    if (toks.empty()) continue;
    const std::string& key = toks[0];

    if (key == "name") {
      if (toks.size() != 2) return fail("name takes one word");
      p.name = toks[1];
    } else if (key == "seed" || key == "jobs" || key == "churn") {
      std::uint64_t v = 0;
      if (toks.size() != 2 || !parse_u64(toks[1], &v)) {
        return fail(key + " takes one non-negative integer");
      }
      if (key == "seed") p.seed = v;
      if (key == "jobs") p.jobs = static_cast<std::size_t>(v);
      if (key == "churn") {
        if (v > 100) return fail("churn is a percentage (0-100)");
        p.churn = static_cast<double>(v) / 100.0;
      }
    } else if (key == "arrival") {
      if (toks.size() < 2) return fail("arrival needs a model name");
      if (toks[1] == "steady") {
        p.arrival = ArrivalModel::kSteady;
      } else if (toks[1] == "bursty") {
        p.arrival = ArrivalModel::kBursty;
      } else if (toks[1] == "diurnal") {
        p.arrival = ArrivalModel::kDiurnal;
      } else {
        return fail("unknown arrival model '" + toks[1] +
                    "' (steady, bursty, diurnal)");
      }
      for (std::size_t i = 2; i < toks.size(); ++i) {
        std::string k, v;
        std::uint64_t n = 0;
        if (!split_kv(toks[i], &k, &v) || !parse_u64(v, &n)) {
          return fail("expected key=integer, got '" + toks[i] + "'");
        }
        if (k == "gap") {
          p.mean_gap = n;
        } else if (k == "burst") {
          p.mean_burst = static_cast<std::size_t>(n);
        } else if (k == "period") {
          p.diurnal_period = static_cast<std::size_t>(n);
        } else {
          return fail("unknown arrival knob '" + k +
                      "' (gap, burst, period)");
        }
      }
    } else if (key == "mix") {
      for (std::size_t i = 0; i < kKernelKinds; ++i) p.mix[i] = 0;
      if (toks.size() < 2) return fail("mix needs at least one family=weight");
      for (std::size_t i = 1; i < toks.size(); ++i) {
        std::string k, v;
        std::uint64_t n = 0;
        KernelKind kind;
        if (!split_kv(toks[i], &k, &v) || !parse_u64(v, &n)) {
          return fail("expected family=weight, got '" + toks[i] + "'");
        }
        if (!kernel_kind_from_string(k, &kind)) {
          return fail("unknown kernel family '" + k +
                      "' (dot, fir, gas, reduce, filter)");
        }
        p.mix[static_cast<std::size_t>(kind)] = static_cast<std::uint32_t>(n);
      }
    } else if (key == "width" || key == "tokens") {
      std::uint64_t lo = 0, hi = 0;
      if (toks.size() != 3 || !parse_u64(toks[1], &lo) ||
          !parse_u64(toks[2], &hi)) {
        return fail(key + " takes two integers: min max");
      }
      if (key == "width") {
        p.width_min = static_cast<int>(lo);
        p.width_max = static_cast<int>(hi);
      } else {
        p.tokens_min = static_cast<std::size_t>(lo);
        p.tokens_max = static_cast<std::size_t>(hi);
      }
    } else if (key == "deadline") {
      std::uint64_t pct = 0, allowance = 0;
      if (toks.size() != 3 || !parse_u64(toks[1], &pct) ||
          !parse_u64(toks[2], &allowance)) {
        return fail("deadline takes two integers: percent allowance");
      }
      if (pct > 100) return fail("deadline percent must be 0-100");
      p.deadline_pressure = static_cast<double>(pct) / 100.0;
      p.deadline_allowance = allowance;
    } else if (key == "energy") {
      if (toks.size() != 2 || (toks[1] != "on" && toks[1] != "off")) {
        return fail("energy takes 'on' or 'off'");
      }
      p.energy = toks[1] == "on";
    } else {
      return fail("unknown pack key '" + key + "'");
    }
  }
  return builder.try_build();
}

StatusOr<std::vector<std::uint64_t>> ref_integers(const std::string& ref,
                                                  std::size_t from,
                                                  std::size_t max_fields) {
  std::vector<std::uint64_t> values;
  for (std::size_t start = from;;) {
    const auto colon = ref.find(':', start);
    const std::string field = ref.substr(
        start, colon == std::string::npos ? std::string::npos : colon - start);
    std::uint64_t value = 0;
    if (!parse_u64(field, &value)) {
      return invalid("field '" + field + "' of " + ref +
                     " is not an integer");
    }
    values.push_back(value);
    if (colon == std::string::npos) break;
    start = colon + 1;
  }
  if (values.size() > max_fields) {
    return invalid(ref + " has too many fields");
  }
  return values;
}

StatusOr<ScenarioPack> load_pack(const std::string& ref) {
  constexpr const char* kPrefix = "@preset:";
  if (ref.rfind(kPrefix, 0) == 0) {
    // @preset:NAME[:seed[:jobs]]
    const std::size_t name_at = std::string(kPrefix).size();
    const auto colon = ref.find(':', name_at);
    const std::string name = ref.substr(
        name_at,
        colon == std::string::npos ? std::string::npos : colon - name_at);
    if (name.empty()) {
      return invalid("preset reference needs a name: @preset:NAME");
    }
    ScenarioPackBuilder builder;
    builder.name(name).jobs(64);
    if (name == "steady") {
      builder.steady(400);
    } else if (name == "bursty") {
      builder.bursty(6, 400);
    } else if (name == "diurnal") {
      builder.diurnal(24, 300);
    } else if (name == "churn") {
      builder.steady(200).churn(0.35).widths(2, 10);
    } else if (name == "deadline") {
      builder.steady(300).deadline_pressure(0.3, 150000);
    } else if (name == "mixed") {
      builder.bursty(4, 300).churn(0.2).deadline_pressure(0.15, 250000)
          .energy();
    } else {
      return invalid("unknown preset '" + name +
                     "' (steady, bursty, diurnal, churn, deadline, mixed)");
    }
    if (colon != std::string::npos) {
      const auto fields = ref_integers(ref, colon + 1, 2);
      if (!fields.ok()) return fields.status();
      builder.seed((*fields)[0]);
      if (fields->size() == 2) {
        builder.jobs(static_cast<std::size_t>((*fields)[1]));
      }
    }
    return builder.try_build();
  }

  std::ifstream in(ref, std::ios::binary);
  if (!in) {
    return Status(StatusCode::kIoError,
                  "cannot read pack spec '" + ref + "'");
  }
  std::ostringstream text;
  text << in.rdbuf();
  return parse_pack(text.str());
}

}  // namespace vlsip::workload
