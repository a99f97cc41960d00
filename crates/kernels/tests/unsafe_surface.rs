//! Pins the size and the shape of the one `unsafe` surface in this crate.
//!
//! `kernels::simd` is the only module allowed `unsafe` (`lib.rs` denies it
//! everywhere else). Every `unsafe` block and every `unsafe fn` there is a
//! site a soundness audit has to read, so the count is pinned: a new site
//! must change this number on purpose, and a deleted one must lower it.
//! The kernels themselves are safe `#[target_feature]` functions, so the
//! module holds no `unsafe fn` at all, and each remaining block is one
//! line: a pointer intrinsic inside a memory helper, or the dispatch call.

const SOURCE: &str = include_str!("../src/simd.rs");

/// `unsafe {` blocks plus `unsafe fn` items in `src/simd.rs`, counted as
/// source text (a macro body counts once, however often it is expanded):
/// eight memory helpers and one dispatch call.
const SIMD_UNSAFE_SITES: usize = 9;

#[test]
fn simd_unsafe_site_count_is_pinned() {
    let sites = SOURCE.matches("unsafe {").count() + SOURCE.matches("unsafe fn").count();
    assert_eq!(
        sites, SIMD_UNSAFE_SITES,
        "kernels::simd has {sites} `unsafe` sites; update the pin only \
         together with the audit of the added or removed site"
    );
}

#[test]
fn simd_has_no_unsafe_fn() {
    assert_eq!(
        SOURCE.matches("unsafe fn").count(),
        0,
        "kernels::simd declares an `unsafe fn`; make it a safe \
         `#[target_feature]` function and move the pointer access into a \
         memory helper"
    );
}

#[test]
fn every_simd_unsafe_block_is_one_intrinsic_or_the_dispatch_call() {
    for line in SOURCE.lines().filter(|l| l.contains("unsafe {")) {
        let block = line.trim_start();
        let intrinsic = block.starts_with("unsafe { _mm") && block.ends_with(") }");
        let dispatch = block == "let out = unsafe { kernel($($arg),*) };";
        assert!(
            intrinsic || dispatch,
            "`{block}` is neither a one-line pointer intrinsic nor the dispatch call"
        );
    }
}
