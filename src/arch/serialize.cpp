#include "arch/serialize.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

#include "common/require.hpp"
#include "snapshot/snapshot.hpp"

namespace vlsip::arch {

namespace {

constexpr const char* kMagic = "vlsip-object-code v1";

std::string hex_u64(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIx64, v);
  return buf;
}

std::uint64_t parse_hex(const std::string& s, int line) {
  std::uint64_t v = 0;
  const auto rc = std::sscanf(s.c_str(), "%" SCNx64, &v);
  VLSIP_REQUIRE(rc == 1, "line " + std::to_string(line) +
                             ": bad hex literal '" + s + "'");
  return v;
}

[[noreturn]] void fail(int line, const std::string& why) {
  throw vlsip::PreconditionError("object-code line " + std::to_string(line) +
                                 ": " + why);
}

}  // namespace

Opcode opcode_from_name(const std::string& name) {
  for (int i = 0; i <= static_cast<int>(Opcode::kSink); ++i) {
    const auto op = static_cast<Opcode>(i);
    if (name == op_name(op)) return op;
  }
  VLSIP_REQUIRE(false, "unknown opcode name: " + name);
  return Opcode::kNop;  // unreachable
}

std::string to_text(const Program& program) {
  std::ostringstream out;
  out << kMagic << "\n";
  for (const auto& obj : program.library) {
    out << "object " << obj.id << " " << op_name(obj.config.opcode)
        << " imm=" << hex_u64(obj.config.immediate.u) << " init=";
    if (obj.config.initial_token) {
      out << hex_u64(obj.initial.u);
    } else {
      out << "-";
    }
    out << " latency=";
    if (obj.config.latency_override) {
      out << *obj.config.latency_override;
    } else {
      out << "-";
    }
    out << " " << (obj.name.empty() ? "_" : obj.name) << "\n";
  }
  for (const auto& e : program.stream.elements()) {
    out << "element " << e.sink;
    for (const auto s : e.sources) {
      out << " ";
      if (s == kNoObject) {
        out << "-";
      } else {
        out << s;
      }
    }
    out << "\n";
  }
  for (const auto& [name, id] : program.inputs) {
    out << "input " << name << " " << id << "\n";
  }
  for (const auto& [name, id] : program.outputs) {
    out << "output " << name << " " << id << "\n";
  }
  return out.str();
}

Program from_text(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  int line_no = 0;

  VLSIP_REQUIRE(std::getline(in, line) && line == kMagic,
                "missing object-code magic header");
  ++line_no;

  Program program;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ls(line);
    std::string kind;
    ls >> kind;
    if (kind == "object") {
      std::uint32_t id = 0;
      std::string opname, imm, init, latency, name;
      ls >> id >> opname >> imm >> init >> latency;
      std::getline(ls, name);
      if (!name.empty() && name[0] == ' ') name.erase(0, 1);
      if (!ls && name.empty()) fail(line_no, "truncated object record");
      if (id != program.library.size()) {
        fail(line_no, "object ids must be dense and ordered");
      }
      LogicalObject obj;
      obj.id = id;
      obj.config.opcode = opcode_from_name(opname);
      if (imm.rfind("imm=", 0) != 0 || init.rfind("init=", 0) != 0 ||
          latency.rfind("latency=", 0) != 0) {
        fail(line_no, "malformed object fields");
      }
      obj.config.immediate.u = parse_hex(imm.substr(4), line_no);
      const auto init_val = init.substr(5);
      if (init_val != "-") {
        obj.config.initial_token = true;
        obj.initial.u = parse_hex(init_val, line_no);
      }
      const auto lat_val = latency.substr(8);
      if (lat_val != "-") {
        obj.config.latency_override = std::stoi(lat_val);
      }
      obj.name = name == "_" ? "" : name;
      program.library.push_back(std::move(obj));
    } else if (kind == "element") {
      ConfigElement e;
      std::string sink;
      ls >> sink;
      if (sink.empty()) fail(line_no, "element without sink");
      e.sink = static_cast<ObjectId>(std::stoul(sink));
      for (int s = 0; s < kMaxSources; ++s) {
        std::string src;
        ls >> src;
        if (src.empty()) fail(line_no, "element with missing source slot");
        if (src != "-") {
          e.sources[static_cast<std::size_t>(s)] =
              static_cast<ObjectId>(std::stoul(src));
        }
      }
      program.stream.push(e);
    } else if (kind == "input" || kind == "output") {
      std::string name;
      std::uint32_t id = 0;
      ls >> name >> id;
      if (name.empty()) fail(line_no, "port without a name");
      if (id >= program.library.size()) {
        fail(line_no, "port references unknown object");
      }
      if (kind == "input") {
        program.inputs[name] = id;
      } else {
        program.outputs[name] = id;
      }
    } else {
      fail(line_no, "unknown record kind '" + kind + "'");
    }
  }
  // Validate stream references.
  for (const auto& e : program.stream.elements()) {
    for (const auto id : e.referenced()) {
      VLSIP_REQUIRE(id < program.library.size(),
                    "stream references unknown object");
    }
  }
  return program;
}

namespace {

constexpr std::uint64_t kNoField = 0xFFFFu;

std::uint64_t pack_id(ObjectId id) {
  if (id == kNoObject) return kNoField;
  VLSIP_REQUIRE(id < kMaxEncodedObjects,
                "object id too large for stream encoding");
  return id;
}

ObjectId unpack_id(std::uint64_t field) {
  return field == kNoField ? kNoObject : static_cast<ObjectId>(field);
}

}  // namespace

std::uint64_t encode_element(const ConfigElement& element) {
  return (pack_id(element.sink) << 48) |
         (pack_id(element.sources[0]) << 32) |
         (pack_id(element.sources[1]) << 16) |
         pack_id(element.sources[2]);
}

ConfigElement decode_element(std::uint64_t word) {
  ConfigElement e;
  e.sink = unpack_id((word >> 48) & 0xFFFFu);
  e.sources[0] = unpack_id((word >> 32) & 0xFFFFu);
  e.sources[1] = unpack_id((word >> 16) & 0xFFFFu);
  e.sources[2] = unpack_id(word & 0xFFFFu);
  return e;
}

std::vector<std::uint64_t> encode_stream(const ConfigStream& stream) {
  std::vector<std::uint64_t> words;
  words.reserve(stream.size());
  for (const auto& e : stream.elements()) {
    words.push_back(encode_element(e));
  }
  return words;
}

ConfigStream decode_stream(const std::vector<std::uint64_t>& words) {
  ConfigStream stream;
  for (const auto w : words) stream.push(decode_element(w));
  return stream;
}

void save_object(snapshot::Writer& w, const LogicalObject& object) {
  w.u32(object.id);
  w.u8(static_cast<std::uint8_t>(object.config.opcode));
  w.u64(object.config.immediate.u);
  w.b(object.config.latency_override.has_value());
  w.i32(object.config.latency_override.value_or(0));
  w.b(object.config.initial_token);
  w.u64(object.initial.u);
  w.str(object.name);
}

LogicalObject restore_object(snapshot::Reader& r) {
  LogicalObject obj;
  obj.id = r.u32();
  obj.config.opcode = static_cast<Opcode>(r.u8());
  obj.config.immediate = make_word_u(r.u64());
  const bool has_latency = r.b();
  const std::int32_t latency = r.i32();
  if (has_latency) obj.config.latency_override = latency;
  obj.config.initial_token = r.b();
  obj.initial = make_word_u(r.u64());
  obj.name = r.str();
  return obj;
}

void save_program(snapshot::Writer& w, const Program& program) {
  w.section("arch.program");
  w.u64(program.library.size());
  for (const auto& obj : program.library) save_object(w, obj);
  w.vec_u64(encode_stream(program.stream));
  w.u64(program.inputs.size());
  for (const auto& [name, id] : program.inputs) {
    w.str(name);
    w.u32(id);
  }
  w.u64(program.outputs.size());
  for (const auto& [name, id] : program.outputs) {
    w.str(name);
    w.u32(id);
  }
}

Program restore_program(snapshot::Reader& r) {
  r.section("arch.program");
  Program program;
  const std::uint64_t n_objects = r.count(1);
  program.library.reserve(static_cast<std::size_t>(n_objects));
  for (std::uint64_t i = 0; i < n_objects; ++i) {
    program.library.push_back(restore_object(r));
  }
  program.stream = decode_stream(r.vec_u64());
  const std::uint64_t n_inputs = r.count(1);
  for (std::uint64_t i = 0; i < n_inputs; ++i) {
    const std::string name = r.str();
    program.inputs[name] = r.u32();
  }
  const std::uint64_t n_outputs = r.count(1);
  for (std::uint64_t i = 0; i < n_outputs; ++i) {
    const std::string name = r.str();
    program.outputs[name] = r.u32();
  }
  return program;
}

}  // namespace vlsip::arch
