//! Pins the size of the one `unsafe` surface in this crate.
//!
//! `kernels::simd` is the only module allowed `unsafe` (`lib.rs` denies it
//! everywhere else). Every `unsafe` block and every `unsafe fn` there is a
//! site a soundness audit has to read, so the count is pinned: a new site
//! must change this number on purpose, and a deleted one must lower it.

/// `unsafe {` blocks plus `unsafe fn` items in `src/simd.rs`, counted as
/// source text (a macro body counts once, however often it is expanded).
const SIMD_UNSAFE_SITES: usize = 26;

#[test]
fn simd_unsafe_site_count_is_pinned() {
    let source = include_str!("../src/simd.rs");
    let sites = source.matches("unsafe {").count() + source.matches("unsafe fn").count();
    assert_eq!(
        sites, SIMD_UNSAFE_SITES,
        "kernels::simd has {sites} `unsafe` sites; update the pin only \
         together with the audit of the added or removed site"
    );
}
