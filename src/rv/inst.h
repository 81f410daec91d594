// Instruction identities, formats and the static ISA descriptor table.
//
// One table (`isa_table()`) describes every instruction the TeraPool DUT
// model understands: base RV32IMA + Zicsr, Zfinx/Zhinx scalar FP in the
// integer register file, the Xpulpimg DSP subset, and the SmallFloat /
// MiniFloat packed-FP subset used by the paper's MMSE kernels.
//
// The assembler, decoder, disassembler, fast ISS and cycle-accurate uarch
// model all consume this table, so encode/decode agreement holds by
// construction. The custom-extension encodings (Xpulpimg, SmallFloat) are
// repo-defined in the RISC-V custom-0/2/3 opcode spaces; see EXPERIMENTS.md.
#pragma once

#include <span>
#include <string_view>

#include "common/types.h"

namespace tsim::rv {

/// Every instruction the simulator understands.
enum class Op : u16 {
  kInvalid = 0,
  // ----- RV32I -----
  kLui, kAuipc, kJal, kJalr,
  kBeq, kBne, kBlt, kBge, kBltu, kBgeu,
  kLb, kLh, kLw, kLbu, kLhu, kSb, kSh, kSw,
  kAddi, kSlti, kSltiu, kXori, kOri, kAndi, kSlli, kSrli, kSrai,
  kAdd, kSub, kSll, kSlt, kSltu, kXor, kSrl, kSra, kOr, kAnd,
  kFence, kEcall, kEbreak, kWfi,
  // ----- Zicsr -----
  kCsrrw, kCsrrs, kCsrrc, kCsrrwi, kCsrrsi, kCsrrci,
  // ----- M -----
  kMul, kMulh, kMulhsu, kMulhu, kDiv, kDivu, kRem, kRemu,
  // ----- A -----
  kLrW, kScW, kAmoswapW, kAmoaddW, kAmoxorW, kAmoandW, kAmoorW,
  kAmominW, kAmomaxW, kAmominuW, kAmomaxuW,
  // ----- Zfinx (binary32 in x-regs) -----
  kFaddS, kFsubS, kFmulS, kFdivS, kFsqrtS,
  kFsgnjS, kFsgnjnS, kFsgnjxS, kFminS, kFmaxS,
  kFeqS, kFltS, kFleS, kFclassS,
  kFcvtWS, kFcvtWuS, kFcvtSW, kFcvtSWu,
  kFmaddS, kFmsubS, kFnmsubS, kFnmaddS,
  // ----- Zhinx (binary16 in x-regs) -----
  kFaddH, kFsubH, kFmulH, kFdivH, kFsqrtH,
  kFsgnjH, kFsgnjnH, kFsgnjxH, kFminH, kFmaxH,
  kFeqH, kFltH, kFleH, kFclassH,
  kFcvtWH, kFcvtWuH, kFcvtHW, kFcvtHWu, kFcvtSH, kFcvtHS,
  kFmaddH, kFmsubH, kFnmsubH, kFnmaddH,
  // ----- Xpulpimg subset (repo encodings, custom-0/1/2) -----
  kPLb, kPLbu, kPLh, kPLhu, kPLw,       // post-increment loads: rd <- [rs1]; rs1 += imm
  kPSb, kPSh, kPSw,                     // post-increment stores: [rs1] <- rs2; rs1 += imm
  kPMac, kPMsu,                         // rd +/-= rs1 * rs2 (int32)
  kPvAddH, kPvAddB, kPvSubH, kPvSubB,   // packed int add/sub
  kPvXorH, kPvXorB, kPvAndH, kPvAndB, kPvOrH, kPvOrB,
  kPvShuffleH, kPvShuffleB,             // lane shuffle from rs1 only
  kPvShuffle2H, kPvShuffle2B,           // lane shuffle from {rs1, rd}
  kPvPackH,                             // rd = {rs2.h0, rs1.h0}
  kPvExtractH, kPvInsertH,              // lane extract/insert, lane index = imm
  // ----- SmallFloat / MiniFloat packed FP subset (repo encodings, custom-3) -----
  kVfaddH, kVfaddB, kVfsubH, kVfsubB, kVfmulH, kVfmulB,
  kVfmacH, kVfmacB,                     // per-lane fused rd.l += rs1.l * rs2.l
  kVfdotpexSH,                          // rd(f32) += rs1.h0*rs2.h0 + rs1.h1*rs2.h1
  kVfdotpexHB,                          // rd(f16) += sum of 4 fp8 lane products
  kVfcdotpH,                            // rd(cf16) += rs1 * rs2     (complex, f32 internal)
  kVfccdotpH,                           // rd(cf16) += conj(rs1) * rs2
  kVfcvtHB, kVfcvtBH,                   // packed fp8 <-> fp16 conversions
  kOpCount_,
};

constexpr size_t kNumOps = static_cast<size_t>(Op::kOpCount_);

/// Assembly/encoding format of an instruction.
enum class Fmt : u8 {
  kR,        // op rd, rs1, rs2
  kR2,       // op rd, rs1           (rs2 fixed in encoding: fsqrt, fcvt, fclass)
  kR4,       // op rd, rs1, rs2, rs3
  kI,        // op rd, rs1, imm12
  kILoad,    // op rd, imm(rs1)
  kIShift,   // op rd, rs1, shamt5
  kS,        // op rs2, imm(rs1)
  kB,        // op rs1, rs2, label
  kU,        // op rd, imm20
  kJ,        // op rd, label
  kCsr,      // op rd, csr, rs1
  kCsrI,     // op rd, csr, uimm5
  kAmo,      // op rd, rs2, (rs1)
  kLrSc,     // lr: op rd, (rs1); sc: op rd, rs2, (rs1)
  kNullary,  // op            (ecall, ebreak, wfi, fence)
  kPLanes,   // op rd, rs1, laneimm  (pv.extract/insert; lane index in rs2 field)
};

/// Functional unit an instruction occupies (used by the uarch model).
enum class Unit : u8 { kAlu, kMul, kDiv, kFpu, kFdiv, kLsu, kCsr, kBranch, kNone };

/// Coarse class used for instruction-mix histograms (Fig. 8 companions).
enum class Mix : u8 { kAlu, kMul, kLoad, kStore, kAmo, kBranch, kFp, kSimdFp, kCsr, kSync };

/// Decoded instruction operands. `imm` holds, depending on format: the
/// sign-extended immediate, the CSR number, the shift amount, or the lane
/// index.
struct Decoded {
  Op op = Op::kInvalid;
  u8 rd = 0;
  u8 rs1 = 0;
  u8 rs2 = 0;
  u8 rs3 = 0;
  i32 imm = 0;
};

/// Static per-instruction descriptor.
struct InstrDef {
  Op op = Op::kInvalid;
  std::string_view mnemonic;
  Fmt fmt = Fmt::kNullary;
  u32 match = 0;     // fixed bit values
  u32 mask = 0;      // which bits are fixed
  Unit unit = Unit::kAlu;
  Mix mix = Mix::kAlu;
  u8 issue_cycles = 1;   // cycles the instruction occupies issue
  u8 result_latency = 1; // cycles from issue until rd is ready (RAW scoreboard)
};

/// The full ISA descriptor table, indexed by `Op`.
std::span<const InstrDef> isa_table();

/// Descriptor for one op (O(1)).
const InstrDef& def_of(Op op);

/// Looks up a mnemonic ("addi", "pv.add.h", ...); returns nullptr if unknown.
const InstrDef* find_mnemonic(std::string_view mnemonic);

/// True for ops that read rd as an implicit source (accumulating ops and
/// lane-preserving ops): p.mac/p.msu, vfmac, dotp/cdotp accumulators,
/// pv.insert, pv.shuffle2 (lane source includes old rd). Constexpr: this is
/// on the per-instruction path of both timing engines.
constexpr bool reads_rd(Op op) {
  switch (op) {
    case Op::kPMac:
    case Op::kPMsu:
    case Op::kVfmacH:
    case Op::kVfmacB:
    case Op::kVfdotpexSH:
    case Op::kVfdotpexHB:
    case Op::kVfcdotpH:
    case Op::kVfccdotpH:
    case Op::kPvInsertH:
    case Op::kPvShuffle2H:
    case Op::kPvShuffle2B:
      return true;
    default:
      return false;
  }
}

}  // namespace tsim::rv
