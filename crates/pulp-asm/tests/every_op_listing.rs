//! Golden listing of every instruction form: one source line per ISA
//! table row × SIMD format × operand mode (`tests/golden/every_op.s`),
//! assembled and disassembled, pinned byte for byte in
//! `tests/golden/every_op.lst` (address, word, text).
//!
//! Round trips cannot see a field code renumbered the same way in the
//! encoder and the decoder; this listing can, because its words were
//! written down independently of the code that now produces them.
//!
//! To re-bless after an intentional encoding or syntax change:
//!
//! ```text
//! XPULPNN_BLESS=1 cargo test -p pulp-asm --test every_op_listing
//! ```

use std::path::PathBuf;

use pulp_asm::text::parse;

const BLESS_ENV: &str = "XPULPNN_BLESS";

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

fn source() -> String {
    std::fs::read_to_string(golden("every_op.s")).expect("every_op.s")
}

/// The instruction lines of the source, in order (no comments or
/// directives).
fn instruction_lines(src: &str) -> Vec<&str> {
    src.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with('.'))
        .collect()
}

#[test]
fn every_op_listing_matches_golden() {
    let prog = parse(&source()).expect("every_op.s assembles");
    let listing = prog.listing();
    let path = golden("every_op.lst");
    if std::env::var(BLESS_ENV).is_ok() {
        std::fs::write(&path, &listing).expect("write every_op.lst");
        return;
    }
    let want = std::fs::read_to_string(&path).expect("every_op.lst");
    for (n, (w, got)) in want.lines().zip(listing.lines()).enumerate() {
        assert_eq!(w, got, "every_op.lst line {} differs", n + 1);
    }
    assert_eq!(want, listing, "every_op.lst length differs");
}

/// Every source line is already in canonical form: the disassembly of
/// what it assembles to is the line itself.
#[test]
fn every_op_source_is_canonical_text() {
    let src = source();
    let prog = parse(&src).expect("every_op.s assembles");
    let lines = instruction_lines(&src);
    assert_eq!(lines.len(), prog.instrs.len());
    for (line, instr) in lines.iter().zip(&prog.instrs) {
        assert_eq!(*line, instr.to_string());
    }
}
