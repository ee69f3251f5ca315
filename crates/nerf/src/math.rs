//! Minimal 3D vector / ray / box math used across the reproduction.
//!
//! Everything here is deliberately plain `f32` math: the paper's accelerator
//! computes in fp16 with f32 accumulation, and all performance-relevant
//! quantisation happens in [`crate::fp16`], not here.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Index, Mul, Neg, Sub};

/// A 3-component single-precision vector (point, direction or RGB color).
///
/// # Example
///
/// ```
/// use instant3d_nerf::math::Vec3;
/// let v = Vec3::new(1.0, 2.0, 2.0);
/// assert_eq!(v.norm(), 3.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Vec3 {
    /// x component.
    pub x: f32,
    /// y component.
    pub y: f32,
    /// z component.
    pub z: f32,
}

impl Vec3 {
    /// The zero vector.
    pub const ZERO: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 0.0,
    };
    /// The all-ones vector.
    pub const ONE: Vec3 = Vec3 {
        x: 1.0,
        y: 1.0,
        z: 1.0,
    };
    /// Unit x axis.
    pub const X: Vec3 = Vec3 {
        x: 1.0,
        y: 0.0,
        z: 0.0,
    };
    /// Unit y axis.
    pub const Y: Vec3 = Vec3 {
        x: 0.0,
        y: 1.0,
        z: 0.0,
    };
    /// Unit z axis.
    pub const Z: Vec3 = Vec3 {
        x: 0.0,
        y: 0.0,
        z: 1.0,
    };

    /// Creates a vector from components.
    #[inline]
    pub const fn new(x: f32, y: f32, z: f32) -> Self {
        Vec3 { x, y, z }
    }

    /// Creates a vector with all components equal to `v`.
    #[inline]
    pub const fn splat(v: f32) -> Self {
        Vec3 { x: v, y: v, z: v }
    }

    /// Dot product.
    #[inline]
    pub fn dot(self, rhs: Vec3) -> f32 {
        self.x * rhs.x + self.y * rhs.y + self.z * rhs.z
    }

    /// Cross product.
    #[inline]
    pub fn cross(self, rhs: Vec3) -> Vec3 {
        Vec3::new(
            self.y * rhs.z - self.z * rhs.y,
            self.z * rhs.x - self.x * rhs.z,
            self.x * rhs.y - self.y * rhs.x,
        )
    }

    /// Euclidean length.
    #[inline]
    pub fn norm(self) -> f32 {
        self.dot(self).sqrt()
    }

    /// Squared Euclidean length (avoids the square root).
    #[inline]
    pub fn norm_squared(self) -> f32 {
        self.dot(self)
    }

    /// Returns the unit vector pointing in the same direction.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the vector is (numerically) zero-length.
    #[inline]
    pub fn normalized(self) -> Vec3 {
        let n = self.norm();
        debug_assert!(n > 0.0, "cannot normalize a zero-length vector");
        self / n
    }

    /// Component-wise product.
    #[inline]
    pub fn mul_elem(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x * rhs.x, self.y * rhs.y, self.z * rhs.z)
    }

    /// Component-wise minimum.
    #[inline]
    pub fn min_elem(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.min(rhs.x), self.y.min(rhs.y), self.z.min(rhs.z))
    }

    /// Component-wise maximum.
    #[inline]
    pub fn max_elem(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x.max(rhs.x), self.y.max(rhs.y), self.z.max(rhs.z))
    }

    /// The largest component.
    #[inline]
    pub fn max_component(self) -> f32 {
        self.x.max(self.y).max(self.z)
    }

    /// Component-wise absolute value.
    #[inline]
    pub fn abs(self) -> Vec3 {
        Vec3::new(self.x.abs(), self.y.abs(), self.z.abs())
    }

    /// Component-wise clamp into `[lo, hi]`.
    #[inline]
    pub fn clamp(self, lo: f32, hi: f32) -> Vec3 {
        Vec3::new(
            self.x.clamp(lo, hi),
            self.y.clamp(lo, hi),
            self.z.clamp(lo, hi),
        )
    }

    /// Linear interpolation `self * (1 - t) + other * t`.
    #[inline]
    pub fn lerp(self, other: Vec3, t: f32) -> Vec3 {
        self * (1.0 - t) + other * t
    }

    /// Distance to another point.
    #[inline]
    pub fn distance(self, other: Vec3) -> f32 {
        (self - other).norm()
    }

    /// True if all components are finite.
    #[inline]
    pub fn is_finite(self) -> bool {
        self.x.is_finite() && self.y.is_finite() && self.z.is_finite()
    }

    /// Components as an array `[x, y, z]`.
    #[inline]
    pub fn to_array(self) -> [f32; 3] {
        [self.x, self.y, self.z]
    }
}

impl From<[f32; 3]> for Vec3 {
    fn from(a: [f32; 3]) -> Self {
        Vec3::new(a[0], a[1], a[2])
    }
}

impl From<Vec3> for [f32; 3] {
    fn from(v: Vec3) -> Self {
        v.to_array()
    }
}

impl Index<usize> for Vec3 {
    type Output = f32;

    /// Indexed component access (0 = x, 1 = y, 2 = z).
    ///
    /// # Panics
    ///
    /// Panics if `i > 2`.
    fn index(&self, i: usize) -> &f32 {
        match i {
            0 => &self.x,
            1 => &self.y,
            2 => &self.z,
            _ => panic!("Vec3 index out of range: {i}"),
        }
    }
}

impl Add for Vec3 {
    type Output = Vec3;
    #[inline]
    fn add(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x + rhs.x, self.y + rhs.y, self.z + rhs.z)
    }
}

impl AddAssign for Vec3 {
    #[inline]
    fn add_assign(&mut self, rhs: Vec3) {
        *self = *self + rhs;
    }
}

impl Sub for Vec3 {
    type Output = Vec3;
    #[inline]
    fn sub(self, rhs: Vec3) -> Vec3 {
        Vec3::new(self.x - rhs.x, self.y - rhs.y, self.z - rhs.z)
    }
}

impl Mul<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn mul(self, s: f32) -> Vec3 {
        Vec3::new(self.x * s, self.y * s, self.z * s)
    }
}

impl Mul<Vec3> for f32 {
    type Output = Vec3;
    #[inline]
    fn mul(self, v: Vec3) -> Vec3 {
        v * self
    }
}

impl Div<f32> for Vec3 {
    type Output = Vec3;
    #[inline]
    fn div(self, s: f32) -> Vec3 {
        Vec3::new(self.x / s, self.y / s, self.z / s)
    }
}

impl Neg for Vec3 {
    type Output = Vec3;
    #[inline]
    fn neg(self) -> Vec3 {
        Vec3::new(-self.x, -self.y, -self.z)
    }
}

impl fmt::Display for Vec3 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({}, {}, {})", self.x, self.y, self.z)
    }
}

/// A ray `r(t) = o + t·d` (Step ② of the pipeline maps pixels to rays).
///
/// # Example
///
/// ```
/// use instant3d_nerf::math::{Ray, Vec3};
/// let r = Ray::new(Vec3::ZERO, Vec3::X);
/// assert_eq!(r.at(2.0), Vec3::new(2.0, 0.0, 0.0));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ray {
    /// Ray origin (the camera center for primary rays).
    pub origin: Vec3,
    /// Ray direction; unit length for all rays produced by this crate.
    pub dir: Vec3,
}

impl Ray {
    /// Creates a ray; `dir` is used as-is (callers normalise when required).
    #[inline]
    pub fn new(origin: Vec3, dir: Vec3) -> Self {
        Ray { origin, dir }
    }

    /// The point at parameter `t` along the ray.
    #[inline]
    pub fn at(&self, t: f32) -> Vec3 {
        self.origin + self.dir * t
    }
}

/// An axis-aligned bounding box: the scene volume covered by the hash grids.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Aabb {
    /// Minimum corner.
    pub min: Vec3,
    /// Maximum corner.
    pub max: Vec3,
}

impl Aabb {
    /// The canonical unit cube `[0,1]^3` used by the hash-grid encoding.
    pub const UNIT: Aabb = Aabb {
        min: Vec3::ZERO,
        max: Vec3::ONE,
    };

    /// Creates a box from its two extreme corners.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if any `min` component exceeds `max`.
    #[inline]
    pub fn new(min: Vec3, max: Vec3) -> Self {
        debug_assert!(min.x <= max.x && min.y <= max.y && min.z <= max.z);
        Aabb { min, max }
    }

    /// A cube centred at `center` with half-extent `half`.
    #[inline]
    pub fn cube(center: Vec3, half: f32) -> Self {
        Aabb::new(center - Vec3::splat(half), center + Vec3::splat(half))
    }

    /// Box edge lengths.
    #[inline]
    pub fn extent(&self) -> Vec3 {
        self.max - self.min
    }

    /// Geometric center of the box.
    #[inline]
    pub fn center(&self) -> Vec3 {
        (self.min + self.max) * 0.5
    }

    /// The diagonal length of the box.
    #[inline]
    pub fn diagonal(&self) -> f32 {
        self.extent().norm()
    }

    /// True if `p` lies inside (or on the surface of) the box.
    #[inline]
    pub fn contains(&self, p: Vec3) -> bool {
        p.x >= self.min.x
            && p.y >= self.min.y
            && p.z >= self.min.z
            && p.x <= self.max.x
            && p.y <= self.max.y
            && p.z <= self.max.z
    }

    /// Maps a world-space point into the unit cube of this box.
    ///
    /// Points outside the box map outside `[0,1]^3`; the hash grid clamps.
    #[inline]
    pub fn to_unit(&self, p: Vec3) -> Vec3 {
        let e = self.extent();
        Vec3::new(
            (p.x - self.min.x) / e.x,
            (p.y - self.min.y) / e.y,
            (p.z - self.min.z) / e.z,
        )
    }

    /// Inverse of [`Aabb::to_unit`].
    #[inline]
    pub fn from_unit(&self, u: Vec3) -> Vec3 {
        self.min + self.extent().mul_elem(u)
    }

    /// Ray/box intersection via the slab method.
    ///
    /// Returns the entry/exit parameters `(t_near, t_far)` clipped to
    /// `t >= 0`, or `None` when the ray misses the box entirely.
    pub fn intersect(&self, ray: &Ray) -> Option<(f32, f32)> {
        let mut t0 = 0.0f32;
        let mut t1 = f32::INFINITY;
        for axis in 0..3 {
            let (o, d, lo, hi) = match axis {
                0 => (ray.origin.x, ray.dir.x, self.min.x, self.max.x),
                1 => (ray.origin.y, ray.dir.y, self.min.y, self.max.y),
                _ => (ray.origin.z, ray.dir.z, self.min.z, self.max.z),
            };
            if d.abs() < 1e-12 {
                if o < lo || o > hi {
                    return None;
                }
                continue;
            }
            let inv = 1.0 / d;
            let (mut ta, mut tb) = ((lo - o) * inv, (hi - o) * inv);
            if ta > tb {
                std::mem::swap(&mut ta, &mut tb);
            }
            t0 = t0.max(ta);
            t1 = t1.min(tb);
            if t0 > t1 {
                return None;
            }
        }
        Some((t0, t1))
    }

    /// The union of two boxes.
    #[inline]
    pub fn union(&self, other: &Aabb) -> Aabb {
        Aabb::new(self.min.min_elem(other.min), self.max.max_elem(other.max))
    }
}

impl Default for Aabb {
    fn default() -> Self {
        Aabb::UNIT
    }
}

impl fmt::Display for Aabb {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{} .. {}]", self.min, self.max)
    }
}

/// Scalar linear interpolation.
#[inline]
pub fn lerp(a: f32, b: f32, t: f32) -> f32 {
    a * (1.0 - t) + b * t
}

/// Smoothstep (3t² − 2t³) on `[0, 1]`, clamping outside.
#[inline]
pub fn smoothstep(t: f32) -> f32 {
    let t = t.clamp(0.0, 1.0);
    t * t * (3.0 - 2.0 * t)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec3_arithmetic() {
        let a = Vec3::new(1.0, 2.0, 3.0);
        let b = Vec3::new(4.0, 5.0, 6.0);
        assert_eq!(a + b, Vec3::new(5.0, 7.0, 9.0));
        assert_eq!(b - a, Vec3::new(3.0, 3.0, 3.0));
        assert_eq!(a * 2.0, Vec3::new(2.0, 4.0, 6.0));
        assert_eq!(2.0 * a, a * 2.0);
        assert_eq!(a / 2.0, Vec3::new(0.5, 1.0, 1.5));
        assert_eq!(-a, Vec3::new(-1.0, -2.0, -3.0));
    }

    #[test]
    fn vec3_dot_cross() {
        assert_eq!(Vec3::X.dot(Vec3::Y), 0.0);
        assert_eq!(Vec3::X.cross(Vec3::Y), Vec3::Z);
        assert_eq!(Vec3::Y.cross(Vec3::Z), Vec3::X);
        let a = Vec3::new(1.0, 2.0, 3.0);
        assert_eq!(a.dot(a), a.norm_squared());
    }

    #[test]
    fn vec3_normalized_is_unit() {
        let v = Vec3::new(3.0, -4.0, 12.0).normalized();
        assert!((v.norm() - 1.0).abs() < 1e-6);
    }

    #[test]
    fn vec3_lerp_endpoints() {
        let a = Vec3::new(1.0, 1.0, 1.0);
        let b = Vec3::new(2.0, 4.0, 8.0);
        assert_eq!(a.lerp(b, 0.0), a);
        assert_eq!(a.lerp(b, 1.0), b);
        assert_eq!(a.lerp(b, 0.5), Vec3::new(1.5, 2.5, 4.5));
    }

    #[test]
    fn vec3_minmax_elem() {
        let a = Vec3::new(1.0, 5.0, 3.0);
        let b = Vec3::new(2.0, 4.0, 3.0);
        assert_eq!(a.min_elem(b), Vec3::new(1.0, 4.0, 3.0));
        assert_eq!(a.max_elem(b), Vec3::new(2.0, 5.0, 3.0));
        assert_eq!(a.max_component(), 5.0);
    }

    #[test]
    fn vec3_index_matches_fields() {
        let a = Vec3::new(7.0, 8.0, 9.0);
        assert_eq!(a[0], a.x);
        assert_eq!(a[1], a.y);
        assert_eq!(a[2], a.z);
    }

    #[test]
    #[should_panic]
    fn vec3_index_out_of_range_panics() {
        let _ = Vec3::ZERO[3];
    }

    #[test]
    fn ray_at_parameterisation() {
        let r = Ray::new(Vec3::new(1.0, 0.0, 0.0), Vec3::new(0.0, 1.0, 0.0));
        assert_eq!(r.at(0.0), r.origin);
        assert_eq!(r.at(3.0), Vec3::new(1.0, 3.0, 0.0));
    }

    #[test]
    fn aabb_contains_and_unit_mapping() {
        let b = Aabb::new(Vec3::new(-1.0, -1.0, -1.0), Vec3::new(1.0, 1.0, 1.0));
        assert!(b.contains(Vec3::ZERO));
        assert!(!b.contains(Vec3::new(2.0, 0.0, 0.0)));
        let u = b.to_unit(Vec3::ZERO);
        assert_eq!(u, Vec3::splat(0.5));
        assert_eq!(b.from_unit(u), Vec3::ZERO);
    }

    #[test]
    fn aabb_ray_intersection_hit_and_miss() {
        let b = Aabb::UNIT;
        let hit = Ray::new(Vec3::new(-1.0, 0.5, 0.5), Vec3::X);
        let (t0, t1) = b.intersect(&hit).expect("ray should hit");
        assert!((t0 - 1.0).abs() < 1e-6);
        assert!((t1 - 2.0).abs() < 1e-6);

        let miss = Ray::new(Vec3::new(-1.0, 2.0, 0.5), Vec3::X);
        assert!(b.intersect(&miss).is_none());
    }

    #[test]
    fn aabb_intersect_ray_starting_inside() {
        let b = Aabb::UNIT;
        let r = Ray::new(Vec3::splat(0.5), Vec3::X);
        let (t0, t1) = b.intersect(&r).unwrap();
        assert_eq!(t0, 0.0);
        assert!((t1 - 0.5).abs() < 1e-6);
    }

    #[test]
    fn aabb_union_contains_both() {
        let b = Aabb::cube(Vec3::splat(5.0), 1.0);
        let u = Aabb::UNIT.union(&b);
        assert!(u.contains(Vec3::splat(5.5)));
        assert!(u.contains(Vec3::ZERO));
    }

    #[test]
    fn scalar_helpers() {
        assert_eq!(lerp(2.0, 4.0, 0.5), 3.0);
        assert_eq!(smoothstep(0.0), 0.0);
        assert_eq!(smoothstep(1.0), 1.0);
        assert_eq!(smoothstep(0.5), 0.5);
        assert_eq!(smoothstep(-1.0), 0.0);
        assert_eq!(smoothstep(2.0), 1.0);
    }
}
