// Umbrella header for the vlsip library — the full public surface of
// the Very Large-Scale Integrated Processor reproduction.
//
//   #include "vlsip.hpp"
//
//   vlsip::core::VlsiProcessor chip;
//   auto proc = chip.fuse(4);
//   auto prog = vlsip::lang::compile("input x\noutput y = x * 3\n");
//   auto r = chip.run_program(proc, prog,
//                             {{"x", {vlsip::arch::make_word_i(14)}}},
//                             1, 100000);
//
// Layering (each header is also individually includable):
//   common/    deterministic RNG, stats, tables, activity sets, SIMD scans
//   obs/       observability spine: structured trace events, metric
//              registry, snapshots, JSON + chrome-trace exporters
//   arch/      object model, streams, builder, analyses, serialization
//   lang/      the dataflow-language compiler
//   csd/       dynamic channel-segmentation-distribution network
//   topology/  S-topology fabric, regions/rings, baseline topologies
//   noc/       virtual-channel wormhole mesh
//   ap/        the adaptive processor (stack, WSRF, pipeline, executor)
//   scaling/   state machine, fuse/split manager, jobs, supervisor
//   costmodel/ the paper's §4 area/delay/GOPS model
//   snapshot/  versioned deterministic binary checkpoints
//   core/      the whole-chip facade (+ Status and config builders)
//   fault/     seeded fault plans + injector (chaos engineering)
//   runtime/   the multi-chip job-serving farm (threads, admission,
//              batching, latency metrics, fault tolerance,
//              checkpoint/restore, deterministic replay)
//   net/       framed binary wire protocol + thin hub client
//   daemon/    hub and worker daemons (the distributed farm)
//   workload/  kernel library over the language front end + seeded
//              scenario-pack traffic generator and report runner
#pragma once

#include "common/require.hpp"
#include "common/rng.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"

#include "obs/farm_metrics.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/snapshot.hpp"
#include "obs/trace_sink.hpp"

#include "arch/config_stream.hpp"
#include "arch/datapath.hpp"
#include "arch/dependency.hpp"
#include "arch/object.hpp"
#include "arch/optimizer.hpp"
#include "arch/serialize.hpp"

#include "lang/compiler.hpp"

#include "csd/csd_simulator.hpp"
#include "csd/dynamic_csd.hpp"
#include "csd/global_network.hpp"
#include "csd/handshake.hpp"

#include "topology/baselines.hpp"
#include "topology/region.hpp"
#include "topology/s_topology.hpp"

#include "noc/noc_fabric.hpp"
#include "noc/router.hpp"

#include "ap/adaptive_processor.hpp"
#include "ap/executor.hpp"
#include "ap/memory_block.hpp"
#include "ap/object_space.hpp"
#include "ap/pipeline.hpp"
#include "ap/replacement.hpp"
#include "ap/wsrf.hpp"

#include "scaling/job.hpp"
#include "scaling/job_scheduler.hpp"
#include "scaling/scaling_manager.hpp"
#include "scaling/state_machine.hpp"
#include "scaling/supervisor.hpp"

#include "costmodel/areas.hpp"
#include "costmodel/technology.hpp"
#include "costmodel/vlsi_model.hpp"

#include "snapshot/snapshot.hpp"

#include "core/builder.hpp"
#include "core/status.hpp"
#include "core/vlsi_processor.hpp"

#include "fault/fault_injector.hpp"
#include "fault/fault_plan.hpp"

#include "runtime/admission_queue.hpp"
#include "runtime/batcher.hpp"
#include "runtime/chip_farm.hpp"
#include "runtime/farm_config_builder.hpp"
#include "runtime/manifest.hpp"
#include "runtime/replay.hpp"

#include "net/client.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "net/wire.hpp"

#include "daemon/hub.hpp"
#include "daemon/worker.hpp"

#include "workload/kernels.hpp"
#include "workload/runner.hpp"
#include "workload/scenario.hpp"
