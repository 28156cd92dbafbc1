// A small dataflow language and its compiler to object code.
//
// §5: "An application compiler needs to simply take care of the linear
// array size to fit the application datapath to the fused region" — the
// adaptive processor needs no instruction scheduling, so its compiler is
// little more than expression-to-dependency translation. This module is
// that compiler: a line-oriented language whose programs become object
// libraries plus global configuration streams.
//
//   # dot-product step with a running sum
//   input x float
//   input w float
//   rec acc = x * w + delay(acc, 0.0)
//   output acc
//
// Statements:
//   input NAME [float]         declare an external input port
//   output NAME [= expr]       declare an output port
//   NAME = expr                define a value
//   rec NAME = expr            define a value that may reference itself
//                              inside delay(...) (feedback loops)
//   store(addr, value)         write to the memory object
//
// Expressions: + - * / %  with the usual precedence, comparisons > < ==
// (lowest), parentheses, integer and float literals, and the intrinsic
// calls gate(c,v), gatenot(c,v), merge(a,b), select(c,a,b), load(addr),
// iota(n), delay(v, init), neg(v), buff(v), shl/shr/and/or/xor(a,b).
// Typing is inferred: float literals/inputs make an expression float
// (kFAdd vs kIAdd); mixing a float with an int *variable* is an error.
#pragma once

#include <string>

#include "arch/datapath.hpp"
#include "core/status.hpp"

namespace vlsip::lang {

/// Compiles `source` to a Program; throws vlsip::PreconditionError with
/// a line number on any lexical, syntactic, or type error.
arch::Program compile(const std::string& source);

/// A compile failure with the offending source line attributed.
/// `line` is 1-based and always >= 1 for non-empty sources; `message`
/// is the full human-readable text including the "line N: " prefix.
struct CompileError {
  int line = 1;
  std::string message;
};

/// Non-throwing facade over compile(), matching the chip's try_fuse /
/// try_split convention: expected failures (bad source from a
/// user, a tool, or a fuzzer) come back as kInvalidArgument instead of
/// an exception. If `error` is non-null it receives the typed error on
/// failure and is left untouched on success.
StatusOr<arch::Program> try_compile(const std::string& source,
                                    CompileError* error = nullptr);

}  // namespace vlsip::lang
