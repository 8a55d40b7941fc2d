//! A text assembler for the full RV32IM + XpulpV2 + XpulpNN mnemonic set.
//!
//! The accepted syntax is exactly the disassembly syntax produced by
//! [`pulp_isa::Instr`]'s `Display` implementation, plus:
//!
//! * `label:` definitions and label operands in branches/jumps/loops,
//! * pseudo-instructions `li`, `la`, `mv`, `j`, `ret`, `csrr`, `sltiu`
//!   and one-operand `jal`,
//! * directives `.org <addr>`, `.equ <name>, <value>`,
//!   `.word <label>, v…`, `.half <label>, v…`, `.byte <label>, v…`,
//! * `#` and `//` comments.
//!
//! Branch/jump/loop targets may be labels or numeric byte offsets
//! (relative to the instruction itself), so `parse` inverts `Display`
//! exactly — a property the test suite checks instruction by instruction.
//!
//! There is no per-mnemonic parser: the mnemonic table holds one
//! prototype instruction per form, and [`Instr::operands`] — the same
//! operand list `Display` prints — says what each operand is and which
//! field holds it. Every number is parsed as `i64` and checked against
//! its field before it is stored, so an out-of-range operand is a
//! line-numbered error, never a different instruction.

use crate::builder::{Asm, AsmError};
use crate::program::Program;
use pulp_isa::decode::decode;
use pulp_isa::instr::{AluOp, Instr, LoopIdx, MemOffset, Operand};
use pulp_isa::table::{Field, FUNCT3, FUNCT7, OPCODE, RS2};
use pulp_isa::vec::{VReg, VecSew};
use pulp_isa::Reg;
use std::collections::HashMap;
use std::convert::Infallible;
use std::fmt;
use std::sync::OnceLock;

/// An error produced while parsing assembly text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based source line.
    pub line: usize,
    /// Explanation of what went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Either a parse-stage or assemble-stage failure from [`parse`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TextAsmError {
    /// Syntax error with source line.
    Parse(ParseError),
    /// Label resolution / encoding error.
    Asm(AsmError),
}

impl fmt::Display for TextAsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TextAsmError::Parse(e) => e.fmt(f),
            TextAsmError::Asm(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for TextAsmError {}

impl From<AsmError> for TextAsmError {
    fn from(e: AsmError) -> Self {
        TextAsmError::Asm(e)
    }
}

fn err(line: usize, message: impl Into<String>) -> TextAsmError {
    TextAsmError::Parse(ParseError {
        line,
        message: message.into(),
    })
}

/// Parses a numeric literal (decimal or `0x…`, optionally negative).
fn parse_int(s: &str) -> Option<i64> {
    let s = s.trim();
    let (neg, body) = match s.strip_prefix('-') {
        Some(rest) => (true, rest),
        None => (false, s),
    };
    if body.starts_with(['-', '+']) {
        return None;
    }
    let v = if let Some(hex) = body.strip_prefix("0x").or_else(|| body.strip_prefix("0X")) {
        i64::from_str_radix(hex, 16).ok()?
    } else {
        body.parse::<i64>().ok()?
    };
    Some(if neg { -v } else { v })
}

/// A number in `lo..=hi`.
fn int_in(s: &str, lo: i64, hi: i64, line: usize) -> Result<i64, TextAsmError> {
    let v = parse_int(s).ok_or_else(|| err(line, format!("expected number, got `{s}`")))?;
    if (lo..=hi).contains(&v) {
        Ok(v)
    } else {
        Err(err(line, format!("{v} out of range {lo}..={hi}")))
    }
}

/// The value of numeric text `s` for `field`: scaled back where the
/// field is written shifted (`lui`'s `imm >> 12`), and range-, scale-
/// and alignment-checked.
fn field_value(s: &str, field: &Field, line: usize) -> Result<i64, TextAsmError> {
    let v = parse_int(s).ok_or_else(|| err(line, format!("expected number, got `{s}`")))?;
    field
        .hex_shift
        .map_or(Some(v), |shift| v.checked_mul(1 << shift))
        .filter(|&v| field.fits(v))
        .ok_or_else(|| err(line, format!("`{s}` does not fit the {} field", field.name)))
}

fn parse_reg(s: &str, line: usize) -> Result<Reg, TextAsmError> {
    Reg::parse(s.trim()).ok_or_else(|| err(line, format!("unknown register `{s}`")))
}

fn parse_vreg(s: &str, line: usize) -> Result<VReg, TextAsmError> {
    VReg::parse(s.trim()).ok_or_else(|| err(line, format!("unknown vector register `{s}`")))
}

/// Splits `off(base)` / `reg(base!)` memory operand syntax.
fn parse_mem_operand(s: &str, line: usize) -> Result<(String, String, bool), TextAsmError> {
    let open = s
        .find('(')
        .ok_or_else(|| err(line, format!("expected `(base)` in `{s}`")))?;
    let close = s
        .rfind(')')
        .ok_or_else(|| err(line, format!("missing `)` in `{s}`")))?;
    let outer = s[..open].trim().to_string();
    let mut inner = s[open + 1..close].trim().to_string();
    let post_inc = inner.ends_with('!');
    if post_inc {
        inner.pop();
    }
    Ok((outer, inner.trim().to_string(), post_inc))
}

fn loop_idx_of(s: &str, line: usize) -> Result<LoopIdx, TextAsmError> {
    match s.trim() {
        "x0" | "0" | "l0" => Ok(LoopIdx::L0),
        "x1" | "1" | "l1" => Ok(LoopIdx::L1),
        other => Err(err(line, format!("unknown hardware loop `{other}`"))),
    }
}

/// Operand list split on commas, trimmed.
fn operands(rest: &str) -> Vec<String> {
    if rest.trim().is_empty() {
        Vec::new()
    } else {
        rest.split(',').map(|s| s.trim().to_string()).collect()
    }
}

fn need(ops: &[String], n: usize, line: usize) -> Result<(), TextAsmError> {
    if ops.len() == n {
        Ok(())
    } else {
        Err(err(
            line,
            format!("expected {n} operands, got {}", ops.len()),
        ))
    }
}

/// Every assembly form by mnemonic, read off the decoder: each word
/// whose selector bits (opcode, funct3, funct7, and bit 20 for
/// `ebreak`) take every value while the other bits stay zero decodes
/// to a prototype, and the first prototype of each (mnemonic, variant)
/// is kept. `p.lw` has three (immediate post-increment, register
/// post-increment, register offset); most mnemonics have one.
fn forms() -> &'static HashMap<String, Vec<Instr>> {
    static FORMS: OnceLock<HashMap<String, Vec<Instr>>> = OnceLock::new();
    FORMS.get_or_init(|| {
        let mut forms: HashMap<String, Vec<Instr>> = HashMap::new();
        for sel in 0..1u32 << 18 {
            let word = OPCODE.pack(sel & 0x7f)
                | FUNCT3.pack(sel >> 7 & 7)
                | RS2.pack(sel >> 10 & 1)
                | FUNCT7.pack(sel >> 11);
            if let Ok(instr) = decode(word) {
                let protos = forms.entry(instr.mnemonic()).or_default();
                let variant = std::mem::discriminant(&instr);
                if !protos.iter().any(|p| std::mem::discriminant(p) == variant) {
                    protos.push(instr);
                }
            }
        }
        forms
    })
}

/// Fills `instr`'s operands from `ops` in text order. Returns the
/// label named by a symbolic pc-relative operand, if any.
fn fill(
    mut instr: Instr,
    ops: &[String],
    line: usize,
) -> Result<(Instr, Option<String>), TextAsmError> {
    let mut arity = 0;
    let Ok(()) = instr.operands(|_| {
        arity += 1;
        Ok::<_, Infallible>(())
    });
    need(ops, arity, line)?;
    let mut label = None;
    let mut texts = ops.iter();
    instr.operands(|slot| {
        let text = texts.next().expect("the operand count was checked");
        match slot {
            Operand::Reg(r) => *r = parse_reg(text, line)?,
            Operand::VReg(v) => *v = parse_vreg(text, line)?,
            Operand::Loop(l) => *l = loop_idx_of(text, line)?,
            Operand::Sew(sew) => {
                *sew = VecSew::from_mnemonic(text)
                    .ok_or_else(|| err(line, format!("unknown element width `{text}`")))?;
            }
            Operand::Imm(_, field) if field.pc_rel && parse_int(text).is_none() => {
                label = Some(text.clone());
            }
            Operand::Imm(v, field) => v.set(field_value(text, field, line)?),
            Operand::Mem {
                off,
                base,
                post_inc,
            } => {
                let (outer, inner, post) = parse_mem_operand(text, line)?;
                if post != post_inc {
                    let takes = if post_inc { "needs" } else { "takes no" };
                    return Err(err(line, format!("`{text}`: this form {takes} `!`")));
                }
                *base = parse_reg(&inner, line)?;
                match off {
                    MemOffset::Imm(v, field) => v.set(field_value(&outer, field, line)?),
                    MemOffset::Reg(r) => *r = parse_reg(&outer, line)?,
                    MemOffset::None if outer.is_empty() => {}
                    MemOffset::None => {
                        return Err(err(
                            line,
                            format!("vector memory operand must be plain `(base)`, got `{text}`"),
                        ))
                    }
                }
            }
        }
        Ok(())
    })?;
    Ok((instr, label))
}

fn parse_instruction(
    mnemonic: &str,
    rest: &str,
    asm: &mut Asm,
    line: usize,
) -> Result<(), TextAsmError> {
    let mut ops = operands(rest);
    // Pseudo-instructions: expand, or rewrite to a canonical form.
    let canonical = match mnemonic {
        "li" => {
            need(&ops, 2, line)?;
            let v = int_in(&ops[1], i32::MIN.into(), u32::MAX.into(), line)?;
            asm.li(parse_reg(&ops[0], line)?, v as u32 as i32);
            return Ok(());
        }
        "la" => {
            need(&ops, 2, line)?;
            asm.la(parse_reg(&ops[0], line)?, &ops[1]);
            return Ok(());
        }
        "mv" => {
            need(&ops, 2, line)?;
            asm.mv(parse_reg(&ops[0], line)?, parse_reg(&ops[1], line)?);
            return Ok(());
        }
        "ret" => {
            need(&ops, 0, line)?;
            asm.ret();
            return Ok(());
        }
        "j" => {
            let jal = Instr::Jal {
                rd: Reg::Zero,
                offset: 0,
            };
            format!("{} zero, {rest}", jal.mnemonic())
        }
        "csrr" => {
            let csrrs = Instr::Csr {
                op: 1,
                rd: Reg::Zero,
                rs1: Reg::Zero,
                csr: 0,
            };
            format!("{} {rest}, zero", csrrs.mnemonic())
        }
        "sltiu" => format!("{}i {rest}", AluOp::Sltu),
        _ => String::new(),
    };
    if !canonical.is_empty() {
        let (m, args) = canonical.split_once(' ').unwrap_or((&canonical, ""));
        return parse_instruction(m, args, asm, line);
    }
    let protos = forms()
        .get(mnemonic)
        .ok_or_else(|| err(line, format!("unknown mnemonic `{mnemonic}`")))?;
    // `jal label` links into `ra`.
    if matches!(protos[0], Instr::Jal { .. }) && ops.len() == 1 {
        ops.insert(0, Reg::Ra.to_string());
    }
    // The first form that takes these operands; else the first form's
    // complaint.
    let (instr, label) = protos[1..]
        .iter()
        .fold(fill(protos[0], &ops, line), |r, p| {
            r.or_else(|e| fill(*p, &ops, line).map_err(|_| e))
        })?;
    match label {
        Some(label) => asm.reloc(instr, &label),
        None => asm.i(instr),
    };
    Ok(())
}

fn parse_directive(
    directive: &str,
    rest: &str,
    asm: &mut Asm,
    base: &mut Option<u32>,
    started: bool,
    line: usize,
) -> Result<(), TextAsmError> {
    let ops = operands(rest);
    match directive {
        ".org" => {
            if started {
                return Err(err(line, ".org must precede all instructions"));
            }
            if ops.len() != 1 {
                return Err(err(line, ".org takes one address"));
            }
            *base = Some(int_in(&ops[0], 0, u32::MAX.into(), line)? as u32);
            Ok(())
        }
        ".equ" => {
            if ops.len() != 2 {
                return Err(err(line, ".equ takes `name, value`"));
            }
            asm.equ(
                &ops[0],
                int_in(&ops[1], i32::MIN.into(), u32::MAX.into(), line)? as u32,
            );
            Ok(())
        }
        ".word" | ".half" | ".byte" => {
            if ops.len() < 2 {
                return Err(err(line, format!("{directive} takes `label, v…`")));
            }
            let (size, lo, hi) = match directive {
                ".word" => (4, i32::MIN.into(), u32::MAX.into()),
                ".half" => (2, -0x8000, 0xffff),
                _ => (1, -0x80, 0xff),
            };
            let mut bytes = Vec::new();
            for v in &ops[1..] {
                let v = int_in(v, lo, hi, line)? as u32;
                bytes.extend_from_slice(&v.to_le_bytes()[..size]);
            }
            asm.data_bytes(&ops[0], bytes);
            Ok(())
        }
        other => Err(err(line, format!("unknown directive `{other}`"))),
    }
}

/// Parses and assembles a full program from assembly text.
///
/// The default load address is `0x1c00_8000` (PULPissimo's L2 code region)
/// unless overridden by a leading `.org`.
///
/// # Errors
///
/// Returns [`TextAsmError::Parse`] for syntax errors (with the 1-based
/// line number) and [`TextAsmError::Asm`] for label-resolution or range
/// errors.
///
/// # Example
///
/// ```
/// let prog = pulp_asm::text::parse(r"
///     li   a0, 3
///     li   a1, 0
/// top:
///     addi a1, a1, 10
///     addi a0, a0, -1
///     bne  a0, zero, top
///     ecall
/// ")?;
/// assert_eq!(prog.instrs.len(), 6);
/// # Ok::<(), pulp_asm::text::TextAsmError>(())
/// ```
pub fn parse(source: &str) -> Result<Program, TextAsmError> {
    // First scan for .org (must precede instructions).
    let mut base: Option<u32> = None;
    let mut asm = Asm::new(0); // rebuilt below once base is known
    let mut items: Vec<(usize, String)> = Vec::new();
    for (idx, raw) in source.lines().enumerate() {
        let line_no = idx + 1;
        let mut text = raw;
        if let Some(pos) = text.find('#') {
            text = &text[..pos];
        }
        if let Some(pos) = text.find("//") {
            text = &text[..pos];
        }
        let text = text.trim();
        if text.is_empty() {
            continue;
        }
        items.push((line_no, text.to_string()));
    }

    // Process directives/instructions in order.
    let mut started = false;
    let mut pending: Vec<(usize, String)> = Vec::new();
    for (line_no, text) in items {
        if let Some(rest) = text.strip_prefix(".org") {
            parse_directive(".org", rest.trim(), &mut asm, &mut base, started, line_no)?;
        } else {
            if !text.starts_with('.') && !text.ends_with(':') {
                started = true;
            }
            pending.push((line_no, text));
        }
    }
    let base = base.unwrap_or(0x1c00_8000);
    let mut asm2 = Asm::new(base);
    // carry over any .equ already seen? (none: .equ handled below)
    drop(asm);

    for (line_no, text) in pending {
        let mut rest: &str = &text;
        // Labels (possibly several, possibly followed by an instruction).
        while let Some(colon) = rest.find(':') {
            let head = rest[..colon].trim();
            if head.is_empty()
                || !head
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.')
            {
                break;
            }
            asm2.label(head);
            rest = rest[colon + 1..].trim_start();
        }
        let rest = rest.trim();
        if rest.is_empty() {
            continue;
        }
        if let Some(stripped) = rest.strip_prefix('.') {
            let dir_end = stripped
                .find(char::is_whitespace)
                .map_or(rest.len(), |i| i + 1);
            let (dir, args) = rest.split_at(dir_end);
            let mut dummy = None;
            parse_directive(
                dir.trim(),
                args.trim(),
                &mut asm2,
                &mut dummy,
                true,
                line_no,
            )?;
            continue;
        }
        let (mnemonic, args) = match rest.find(char::is_whitespace) {
            Some(i) => rest.split_at(i),
            None => (rest, ""),
        };
        parse_instruction(mnemonic.trim(), args.trim(), &mut asm2, line_no)?;
    }

    Ok(asm2.assemble()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pulp_isa::instr::{
        BitOp, BranchCond, LoadKind, MulDivOp, PulpAluOp, SimdAluOp, SimdOperand, StoreKind,
    };
    use pulp_isa::simd::{DotSign, SimdFmt};

    #[test]
    fn parse_basic_program() {
        let p = parse(
            r"
            .org 0x200
            li   a0, 3
        top:
            addi a0, a0, -1
            bne  a0, zero, top
            ecall
        ",
        )
        .unwrap();
        assert_eq!(p.base, 0x200);
        assert_eq!(p.instrs.len(), 4);
        assert_eq!(p.symbol("top"), Some(0x204));
    }

    #[test]
    fn parse_comments_and_blank_lines() {
        let p = parse("# full-line comment\n  nop // trailing\n\n  ecall # done\n").unwrap();
        assert_eq!(p.instrs, vec![Instr::Nop, Instr::Ecall]);
    }

    #[test]
    fn parse_memory_and_pulp_forms() {
        let p = parse(
            r"
            lw   a0, 8(sp)
            sw   a0, -4(sp)
            p.lw a1, 4(a2!)
            p.lw a1, a3(a2!)
            p.lw a1, a3(a2)
            p.sw a1, 4(a2!)
            pv.sdotsp.n s0, a1, a2
            pv.add.sci.h a0, a0, -3
            pv.qnt.c a0, a1, a2
            lp.setupi x0, 10, 8
            p.clip a0, a1, 8
        ",
        )
        .unwrap();
        assert_eq!(p.instrs.len(), 11);
        assert!(matches!(p.instrs[2], Instr::LoadPostInc { .. }));
        assert!(matches!(p.instrs[3], Instr::LoadPostIncReg { .. }));
        assert!(matches!(p.instrs[4], Instr::LoadRegOff { .. }));
        assert!(matches!(
            p.instrs[8],
            Instr::PvQnt {
                fmt: SimdFmt::Crumb,
                ..
            }
        ));
    }

    #[test]
    fn parse_vector_forms() {
        let p = parse(
            r"
            vsetvli t1, t2, e8
            vle.v v0, (a1)
            vlse.v v4, (a1), a3
            vdotusp.vv s4, v0, v4
            vsetvli zero, t0, e16
            vqnt.n.v v2, a1, v0
            vmv.x.s a0, v2
            vse.v v2, (a2)
        ",
        )
        .unwrap();
        assert_eq!(p.instrs.len(), 8);
        assert!(matches!(
            p.instrs[3],
            Instr::VDot {
                sign: DotSign::UnsignedSigned,
                ..
            }
        ));
        assert!(matches!(
            p.instrs[5],
            Instr::VQnt {
                fmt: SimdFmt::Nibble,
                ..
            }
        ));
        assert!(matches!(p.instrs[6], Instr::VMvXS { .. }));
    }

    #[test]
    fn parse_rejects_bad_vector_operands() {
        // Leading-zero vector register names are not canonical.
        assert!(parse("vle.v v04, (a1)").is_err());
        // Offsets and post-increment are scalar-only addressing.
        assert!(parse("vle.v v0, 4(a1)").is_err());
        assert!(parse("vse.v v0, (a1!)").is_err());
        // e3 is not a supported element width.
        assert!(parse("vsetvli t0, t1, e3").is_err());
    }

    #[test]
    fn parse_reports_line_numbers() {
        let e = parse("nop\nbogus a0, a1\n").unwrap_err();
        match e {
            TextAsmError::Parse(pe) => {
                assert_eq!(pe.line, 2);
                assert!(pe.message.contains("bogus"));
            }
            other => panic!("expected parse error, got {other}"),
        }
    }

    /// Every `lp.*` mnemonic with no operands is a line-numbered error,
    /// not an index panic.
    #[test]
    fn bare_hardware_loop_mnemonics_are_errors() {
        for m in [
            "lp.starti",
            "lp.endi",
            "lp.count",
            "lp.counti",
            "lp.setup",
            "lp.setupi",
        ] {
            match parse(&format!("nop\n{m}\n")) {
                Err(TextAsmError::Parse(e)) => assert_eq!(e.line, 2, "{m}: {e}"),
                other => panic!("{m}: expected a parse error, got {other:?}"),
            }
        }
    }

    /// A number its field cannot hold, or text that is not one number,
    /// is rejected with its line, never narrowed into a different
    /// instruction.
    #[test]
    fn out_of_range_operands_are_rejected() {
        for line in [
            "pv.add.sci.h a0, a1, 287",
            "pv.extract.b a0, a1, 257",
            "p.clip a0, a1, 264",
            "csrr a0, 0x10b00",
            "lui a0, 0x100001",
            "p.extract a0, a1, 300, 40",
            "lp.setupi x0, 4, 200",
            "beq a0, a1, 5",
            "jal ra, 3",
            "lp.starti x0, 3",
            "addi a0, a1, 2048",
            "slli a0, a1, 32",
            "lw a0, -2049(a1)",
            "li a0, 0x100000000",
            ".byte b, 256",
            "addi a0, a1, --5",
        ] {
            match parse(&format!("nop\n{line}\n")) {
                Err(TextAsmError::Parse(e)) => assert_eq!(e.line, 2, "`{line}`: {e}"),
                other => panic!("`{line}`: expected a parse error, got {other:?}"),
            }
        }
    }

    /// `jal` with a label links into the register it names.
    #[test]
    fn jal_label_keeps_its_link_register() {
        let p = parse("jal t0, end\nnop\nend:\necall\n").unwrap();
        assert_eq!(
            p.instrs[0],
            Instr::Jal {
                rd: Reg::T0,
                offset: 8
            }
        );
    }

    #[test]
    fn parse_data_directives() {
        let p = parse(
            r"
            la a0, tbl
            ecall
            .word tbl, 1, 2
            .half h, -1
            .byte b, 0xff, 1
        ",
        )
        .unwrap();
        assert_eq!(p.data.len(), 3);
        assert_eq!(p.data[0].1, vec![1, 0, 0, 0, 2, 0, 0, 0]);
        assert_eq!(p.data[1].1, vec![0xff, 0xff]);
        assert_eq!(p.data[2].1, vec![0xff, 1]);
    }

    /// `parse` inverts `Display` for representative instructions of every
    /// class (the cross-crate property test covers the full space).
    #[test]
    fn parse_inverts_display_samples() {
        use pulp_isa::instr::LoopIdx;
        let samples = vec![
            Instr::Lui {
                rd: Reg::A0,
                imm: 0x12000,
            },
            Instr::Jal {
                rd: Reg::Ra,
                offset: 16,
            },
            Instr::Jalr {
                rd: Reg::Zero,
                rs1: Reg::Ra,
                offset: 0,
            },
            Instr::Branch {
                cond: BranchCond::Ltu,
                rs1: Reg::A0,
                rs2: Reg::A1,
                offset: -8,
            },
            Instr::Load {
                kind: LoadKind::ByteU,
                rd: Reg::A0,
                rs1: Reg::Sp,
                offset: 3,
            },
            Instr::Store {
                kind: StoreKind::Half,
                rs1: Reg::Sp,
                rs2: Reg::A0,
                offset: -2,
            },
            Instr::Alu {
                op: AluOp::Xor,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            },
            Instr::AluImm {
                op: AluOp::Sra,
                rd: Reg::A0,
                rs1: Reg::A1,
                imm: 7,
            },
            Instr::MulDiv {
                op: MulDivOp::Mulhsu,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            },
            Instr::PulpAlu {
                op: PulpAluOp::Maxu,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            },
            Instr::PClip {
                rd: Reg::A0,
                rs1: Reg::A1,
                bits: 4,
            },
            Instr::PMac {
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            },
            Instr::PBit {
                op: BitOp::Cnt,
                rd: Reg::A0,
                rs1: Reg::A1,
            },
            Instr::PExtract {
                rd: Reg::A0,
                rs1: Reg::A1,
                len: 8,
                off: 4,
            },
            Instr::PInsert {
                rd: Reg::A0,
                rs1: Reg::A1,
                len: 4,
                off: 28,
            },
            Instr::LoadPostInc {
                kind: LoadKind::Word,
                rd: Reg::A0,
                rs1: Reg::A1,
                offset: 4,
            },
            Instr::StorePostIncReg {
                kind: StoreKind::Word,
                rs1: Reg::A1,
                rs2: Reg::A0,
                rs3: Reg::A2,
            },
            Instr::LpStarti {
                l: LoopIdx::L0,
                offset: 16,
            },
            Instr::LpCounti {
                l: LoopIdx::L1,
                imm: 100,
            },
            Instr::LpSetup {
                l: LoopIdx::L0,
                rs1: Reg::T0,
                offset: 24,
            },
            Instr::PvAlu {
                op: SimdAluOp::Avgu,
                fmt: SimdFmt::Nibble,
                rd: Reg::A0,
                rs1: Reg::A1,
                op2: SimdOperand::Scalar(Reg::A2),
            },
            Instr::PvAbs {
                fmt: SimdFmt::Crumb,
                rd: Reg::A0,
                rs1: Reg::A1,
            },
            Instr::PvExtract {
                fmt: SimdFmt::Byte,
                rd: Reg::A0,
                rs1: Reg::A1,
                idx: 3,
                signed: false,
            },
            Instr::PvDot {
                fmt: SimdFmt::Half,
                sign: DotSign::UnsignedUnsigned,
                rd: Reg::A0,
                rs1: Reg::A1,
                op2: SimdOperand::Imm(-5),
            },
            Instr::PvSdot {
                fmt: SimdFmt::Crumb,
                sign: DotSign::SignedSigned,
                rd: Reg::S4,
                rs1: Reg::A1,
                op2: SimdOperand::Vector(Reg::A2),
            },
            Instr::PvQnt {
                fmt: SimdFmt::Nibble,
                rd: Reg::A0,
                rs1: Reg::A1,
                rs2: Reg::A2,
            },
            Instr::Csr {
                op: 0,
                rd: Reg::A0,
                rs1: Reg::A1,
                csr: 0xb00,
            },
            Instr::VSetvli {
                rd: Reg::T1,
                rs1: Reg::T2,
                sew: VecSew::E4,
            },
            Instr::VLoad {
                vd: VReg::V0,
                rs1: Reg::A1,
            },
            Instr::VStore {
                vs: VReg::new(2).unwrap(),
                rs1: Reg::A2,
            },
            Instr::VLoadStrided {
                vd: VReg::new(4).unwrap(),
                rs1: Reg::A1,
                rs2: Reg::A3,
            },
            Instr::VStoreStrided {
                vs: VReg::new(4).unwrap(),
                rs1: Reg::A1,
                rs2: Reg::A3,
            },
            Instr::VDot {
                sign: DotSign::UnsignedSigned,
                rd: Reg::S4,
                vs1: VReg::V0,
                vs2: VReg::new(4).unwrap(),
            },
            Instr::VQnt {
                fmt: SimdFmt::Nibble,
                vd: VReg::new(2).unwrap(),
                rs1: Reg::A1,
                vs2: VReg::V0,
            },
            Instr::VSlide1 {
                vd: VReg::V0,
                vs2: VReg::V0,
                rs1: Reg::S4,
            },
            Instr::VMvXS {
                rd: Reg::A0,
                vs2: VReg::new(2).unwrap(),
            },
            Instr::Fence,
            Instr::Ebreak,
            Instr::Nop,
        ];
        for instr in samples {
            let text = instr.to_string();
            let p = parse(&text).unwrap_or_else(|e| panic!("`{text}`: {e}"));
            assert_eq!(p.instrs, vec![instr], "`{text}`");
        }
    }
}
