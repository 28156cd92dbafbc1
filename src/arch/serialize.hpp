// Object-code serialization: a line-oriented text format for Programs
// (object library + global configuration stream + port bindings).
//
// The adaptive processor's "binary" is exactly this: logical objects and
// dependencies, no instructions. The format makes programs storable,
// diffable and loadable by tools:
//
//   vlsip-object-code v1
//   object <id> <opcode> imm=<hex> init=<hex|-> latency=<n|-> <name>
//   element <sink> <src0|-> <src1|-> <src2|->
//   input <name> <object-id>
//   output <name> <object-id>
#pragma once

#include <string>

#include "arch/datapath.hpp"

namespace vlsip::snapshot {
class Writer;
class Reader;
}  // namespace vlsip::snapshot

namespace vlsip::arch {

/// Renders a Program in the text format (always parseable back).
std::string to_text(const Program& program);

/// Parses the text format; throws PreconditionError with a line number
/// on malformed input.
Program from_text(const std::string& text);

/// Opcode from its op_name(); throws on unknown names.
Opcode opcode_from_name(const std::string& name);

// ---- binary stream encoding -------------------------------------------
//
// The global configuration data stream as it lives in memory blocks
// (§3.3: configuration data is stored into an inactive processor's
// memory): one 64-bit word per element, sink and three sources packed
// 16 bits each, 0xFFFF = no object. This is what the pointer-update /
// request-fetch pipeline stages actually read.

/// Object ids a packed element can name are 0 .. kMaxEncodedObjects-1
/// (the all-ones field means "no object"), so no program that can be
/// streamed or checkpointed holds more objects than this.
inline constexpr ObjectId kMaxEncodedObjects = 0xFFFFu;

/// Packs one element; every id must be < kMaxEncodedObjects.
std::uint64_t encode_element(const ConfigElement& element);
ConfigElement decode_element(std::uint64_t word);

/// Packs a whole stream into memory words.
std::vector<std::uint64_t> encode_stream(const ConfigStream& stream);
ConfigStream decode_stream(const std::vector<std::uint64_t>& words);

// ---- snapshot embedding -----------------------------------------------
//
// Binary codecs used by the checkpoint layer (src/snapshot/): a logical
// object or a whole Program written into / read back from a snapshot
// byte stream. Equivalent to to_text/from_text but without the text
// round-trip, and covering every field bit-exactly (immediates and
// initial words keep their raw 64-bit payload).

void save_object(snapshot::Writer& w, const LogicalObject& object);
LogicalObject restore_object(snapshot::Reader& r);

void save_program(snapshot::Writer& w, const Program& program);
Program restore_program(snapshot::Reader& r);

}  // namespace vlsip::arch
