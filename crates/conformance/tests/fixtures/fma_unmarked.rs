// Fixture: linted as if it were a strict kernel module — as
// crates/nerf/src/simd.rs, which may spell a fused op under the marker,
// and as crates/nerf/src/mlp.rs, which may not. Not compiled — driven via
// include_str!.

fn strict_kernel(a: f32, b: f32, c: f32) -> f32 {
    // VIOLATION: fused multiply-add in a strict module, no marker.
    a.mul_add(b, c)
}

// CONTRACT: lossy-tier — fused helper backing the fast backend only.
#[inline]
fn lossy_helper(a: f32, b: f32, c: f32) -> f32 {
    a.mul_add(b, c)
}

fn plain(a: f32, b: f32, c: f32) -> f32 {
    a * b + c
}

fn strict_monomorph(acc: f32, w: f32, x: f32) -> f32 {
    // VIOLATION: the fused accumulate policy named in a strict module.
    lane_body::<crate::simd::Fused>(acc, w, x)
}

// CONTRACT: lossy-tier — the fast backend's monomorph of the shared body.
fn lossy_monomorph(acc: f32, w: f32, x: f32) -> f32 {
    lane_body::<crate::simd::Fused>(acc, w, x)
}
