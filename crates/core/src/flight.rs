//! Virtual flight: a six-degree-of-freedom rigid-body integrator flying a
//! vehicle through the aero-performance database (paper §I and §IV).
//!
//! "When coupled with a six-degree-of-freedom (6-DOF) integrator, the
//! vehicle can be 'flown' through the database by guidance and control
//! system designers to explore issues of stability and control." The
//! database produced by [`crate::DatabaseFill`] is interpolated
//! multilinearly in (deflection, Mach, alpha); the integrator advances a
//! quaternion rigid-body state with RK4.
//!
//! Units follow the solvers' non-dimensionalisation: unit free-stream
//! density and sound speed, so speed == Mach number and forces come out of
//! the database unscaled.

use crate::database::DatabaseEntry;
use columbia_mesh::Vec3;

/// A lookup that cannot be answered from the table: the typed error
/// returned by [`AeroDatabase::lookup_checked`] (and surfaced per query by
/// `columbia_core::server::DatabaseServer`). Quarantine holes are *typed*,
/// never silently interpolated as placeholder zero loads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum LookupError {
    /// The interpolation stencil at the (clamped) flight condition touches
    /// quarantined grid nodes, so any answer would blend placeholder loads.
    QuarantinedRegion {
        /// Queried deflection (pre-clamp).
        deflection: f64,
        /// Queried Mach number (pre-clamp).
        mach: f64,
        /// Queried angle of attack (pre-clamp).
        alpha: f64,
        /// Number of quarantined nodes with nonzero interpolation weight.
        holes: usize,
    },
    /// A query coordinate is NaN or infinite; clamping cannot repair it.
    NonFiniteQuery {
        /// Queried deflection.
        deflection: f64,
        /// Queried Mach number.
        mach: f64,
        /// Queried angle of attack.
        alpha: f64,
    },
}

impl std::fmt::Display for LookupError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LookupError::QuarantinedRegion {
                deflection,
                mach,
                alpha,
                holes,
            } => write!(
                f,
                "lookup (defl {deflection}, M {mach}, alpha {alpha}) touches \
                 {holes} quarantined node(s); re-run the hole or opt into a \
                 degraded fallback"
            ),
            LookupError::NonFiniteQuery {
                deflection,
                mach,
                alpha,
            } => write!(
                f,
                "non-finite query (defl {deflection}, M {mach}, alpha {alpha})"
            ),
        }
    }
}

impl std::error::Error for LookupError {}

/// A structurally invalid aero table: the typed error returned by
/// [`AeroDatabase::from_axes`]. Breakpoint axes must be finite and
/// *strictly* increasing — a duplicated or descending breakpoint would
/// make the interpolation weight `t = (x - v[i]) / (v[i+1] - v[i])`
/// divide by zero (or flip sign), which the lookup used to paper over
/// with a `1e-300` floor instead of reporting.
#[derive(Clone, Debug, PartialEq)]
pub enum TableError {
    /// An axis breakpoint is NaN or infinite.
    NonFinite {
        /// Axis name (`"deflection"`, `"mach"`, `"alpha"`).
        axis: &'static str,
        /// Index of the offending breakpoint.
        index: usize,
        /// The offending value.
        value: f64,
    },
    /// An axis is not strictly increasing: `v[index + 1] <= v[index]`.
    NonMonotonic {
        /// Axis name.
        axis: &'static str,
        /// Index of the first violation.
        index: usize,
        /// `v[index]`.
        prev: f64,
        /// `v[index + 1]`.
        next: f64,
    },
    /// An axis has no breakpoints.
    EmptyAxis {
        /// Axis name.
        axis: &'static str,
    },
    /// Table length does not match the axis product.
    BadShape {
        /// Expected number of nodes (`nd * nm * na`).
        expected: usize,
        /// Supplied number of nodes.
        got: usize,
    },
    /// An entry carries [`crate::database::CaseStatus::Quarantined`]: its
    /// loads are the fill's placeholder zeros, not a solution. Strict
    /// construction ([`AeroDatabase::from_entries`]) rejects the whole
    /// table; [`AeroDatabase::from_entries_masked`] admits it as a typed
    /// hole instead.
    QuarantinedNode {
        /// Deflection of the quarantined entry.
        deflection: f64,
        /// Mach number of the quarantined entry.
        mach: f64,
        /// Angle of attack of the quarantined entry.
        alpha: f64,
    },
}

impl std::fmt::Display for TableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TableError::NonFinite { axis, index, value } => {
                write!(f, "{axis} axis: breakpoint {index} is not finite ({value})")
            }
            TableError::NonMonotonic {
                axis,
                index,
                prev,
                next,
            } => write!(
                f,
                "{axis} axis: breakpoints must be strictly increasing, \
                 but v[{index}] = {prev} is followed by {next}"
            ),
            TableError::EmptyAxis { axis } => write!(f, "{axis} axis has no breakpoints"),
            TableError::BadShape { expected, got } => {
                write!(f, "table holds {got} nodes but the axes span {expected}")
            }
            TableError::QuarantinedNode {
                deflection,
                mach,
                alpha,
            } => write!(
                f,
                "entry (defl {deflection}, M {mach}, alpha {alpha}) is \
                 quarantined: placeholder loads must not be interpolated \
                 (re-run the case, or build with from_entries_masked)"
            ),
        }
    }
}

impl std::error::Error for TableError {}

/// Structured (deflection x Mach x alpha) force/moment tables.
///
/// Invariant: every axis is finite and strictly increasing — enforced by
/// [`Self::from_axes`], which every constructor funnels through, so
/// [`Self::lookup`] never divides by a zero breakpoint gap.
#[derive(Clone, Debug)]
pub struct AeroDatabase {
    deflections: Vec<f64>,
    machs: Vec<f64>,
    alphas: Vec<f64>,
    /// `force[(d, m, a)]` in solver axes (x downstream, z up).
    force: Vec<Vec3>,
    moment: Vec<Vec3>,
    /// Quarantine mask: `true` nodes hold placeholder loads, never real
    /// solutions. Strict constructors leave this all-false.
    quarantined: Vec<bool>,
    /// Number of `true` bits in `quarantined` (hole count).
    nholes: usize,
}

fn validate_axis(axis: &'static str, v: &[f64]) -> Result<(), TableError> {
    if v.is_empty() {
        return Err(TableError::EmptyAxis { axis });
    }
    for (i, &x) in v.iter().enumerate() {
        if !x.is_finite() {
            return Err(TableError::NonFinite {
                axis,
                index: i,
                value: x,
            });
        }
    }
    for i in 0..v.len() - 1 {
        if v[i + 1] <= v[i] {
            return Err(TableError::NonMonotonic {
                axis,
                index: i,
                prev: v[i],
                next: v[i + 1],
            });
        }
    }
    Ok(())
}

impl AeroDatabase {
    /// Assemble from database entries; the entries must cover the full
    /// (deflection, Mach, alpha) tensor grid (beta is ignored: longitudinal
    /// database).
    ///
    /// Strict construction: an entry whose [`DatabaseEntry::status`] is
    /// [`crate::database::CaseStatus::Quarantined`] holds the fill's
    /// placeholder zero loads, not a solution, and is rejected with
    /// [`TableError::QuarantinedNode`] — it must never be tensor-filled
    /// and interpolated as if real. To keep the holes as typed,
    /// explicitly-masked nodes instead, use
    /// [`AeroDatabase::from_entries_masked`].
    ///
    /// # Panics
    /// If any grid node is missing.
    pub fn from_entries(entries: &[DatabaseEntry]) -> Result<AeroDatabase, TableError> {
        Self::assemble(entries, false)
    }

    /// Assemble from database entries, admitting quarantined entries as
    /// explicit holes: their nodes are masked, [`Self::lookup_checked`]
    /// reports any stencil that touches them with
    /// [`LookupError::QuarantinedRegion`], and the infallible
    /// [`Self::lookup`] refuses to run at all (see its panic contract).
    /// Holes are repaired with [`Self::fill_node`] once a re-run converges.
    pub fn from_entries_masked(entries: &[DatabaseEntry]) -> Result<AeroDatabase, TableError> {
        Self::assemble(entries, true)
    }

    fn assemble(entries: &[DatabaseEntry], mask: bool) -> Result<AeroDatabase, TableError> {
        let mut deflections: Vec<f64> = entries.iter().map(|e| e.deflection).collect();
        let mut machs: Vec<f64> = entries.iter().map(|e| e.mach).collect();
        let mut alphas: Vec<f64> = entries.iter().map(|e| e.alpha).collect();
        for v in [&mut deflections, &mut machs, &mut alphas] {
            v.sort_by(|a, b| a.partial_cmp(b).unwrap());
            v.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        }
        let nd = deflections.len();
        let nm = machs.len();
        let na = alphas.len();
        let mut force = vec![Vec3::ZERO; nd * nm * na];
        let mut moment = vec![Vec3::ZERO; nd * nm * na];
        let mut filled = vec![false; nd * nm * na];
        let mut quarantined = vec![false; nd * nm * na];
        let mut nholes = 0usize;
        let find = |v: &[f64], x: f64| {
            v.iter()
                .position(|&y| (y - x).abs() < 1e-12)
                .expect("entry off the tensor grid")
        };
        for e in entries {
            let idx = find(&deflections, e.deflection) * nm * na
                + find(&machs, e.mach) * na
                + find(&alphas, e.alpha);
            if !e.status.is_ok() {
                if !mask {
                    return Err(TableError::QuarantinedNode {
                        deflection: e.deflection,
                        mach: e.mach,
                        alpha: e.alpha,
                    });
                }
                // The node exists (no missing-node panic) but its
                // placeholder loads stay zero and masked.
                if !quarantined[idx] {
                    quarantined[idx] = true;
                    nholes += 1;
                }
                filled[idx] = true;
                continue;
            }
            force[idx] = e.forces.force;
            moment[idx] = e.forces.moment;
            filled[idx] = true;
        }
        assert!(
            filled.iter().all(|&f| f),
            "database does not cover the full tensor grid"
        );
        let mut db = AeroDatabase::from_axes(deflections, machs, alphas, force, moment)
            .expect("from_entries produced an invalid axis after sort/dedup");
        db.quarantined = quarantined;
        db.nholes = nholes;
        Ok(db)
    }

    /// Assemble directly from breakpoint axes and flattened tables
    /// (`force[(d * nm + m) * na + a]`).
    ///
    /// Each axis must be non-empty, finite, and strictly increasing; the
    /// tables must span the full tensor grid. A duplicated or descending
    /// breakpoint is rejected here with a typed error rather than silently
    /// degrading the interpolation weight inside [`Self::lookup`].
    pub fn from_axes(
        deflections: Vec<f64>,
        machs: Vec<f64>,
        alphas: Vec<f64>,
        force: Vec<Vec3>,
        moment: Vec<Vec3>,
    ) -> Result<AeroDatabase, TableError> {
        validate_axis("deflection", &deflections)?;
        validate_axis("mach", &machs)?;
        validate_axis("alpha", &alphas)?;
        let expected = deflections.len() * machs.len() * alphas.len();
        for table in [&force, &moment] {
            if table.len() != expected {
                return Err(TableError::BadShape {
                    expected,
                    got: table.len(),
                });
            }
        }
        Ok(AeroDatabase {
            quarantined: vec![false; force.len()],
            nholes: 0,
            deflections,
            machs,
            alphas,
            force,
            moment,
        })
    }

    /// Bracket `x` on a strictly increasing breakpoint axis: the cell index
    /// `i` and interpolation weight `t` in `[0, 1]`, with out-of-range
    /// inputs clamped to the edge cells.
    ///
    /// This is a `partition_point` binary search over the upper breakpoints
    /// `v[1..]`, replacing the seed's O(n) linear scan; it reproduces the
    /// scan's `(i, t)` exactly, including the convention that an exact
    /// interior breakpoint lands in the *lower* cell with `t = 1.0`
    /// (pinned by the `bracket_binary_search_matches_linear_scan` parity
    /// test).
    pub fn bracket(v: &[f64], x: f64) -> (usize, f64) {
        if v.len() == 1 {
            return (0, 0.0);
        }
        let x = x.clamp(v[0], v[v.len() - 1]);
        // First upper breakpoint >= x, i.e. the linear scan's first k with
        // x <= v[k + 1]; out-of-range x already clamped above.
        let i = v[1..].partition_point(|&y| y < x).min(v.len() - 2);
        // Construction guarantees strictly increasing breakpoints, so the
        // gap is positive; a zero gap here means the invariant was broken.
        let dv = v[i + 1] - v[i];
        debug_assert!(dv > 0.0, "non-increasing axis reached lookup: dv = {dv}");
        let t = (x - v[i]) / dv;
        (i, t.clamp(0.0, 1.0))
    }

    /// Trilinear interpolation of (force, moment) at a flight condition;
    /// inputs outside the tables are clamped to the edges.
    ///
    /// # Panics
    /// If the table carries quarantine holes
    /// ([`Self::from_entries_masked`] with quarantined entries): an
    /// infallible lookup on a holed table is exactly the silent
    /// placeholder-load corruption this type exists to prevent. Masked
    /// tables must be queried through [`Self::lookup_checked`] (or a
    /// `columbia_core::server::DatabaseServer` with an explicit degraded
    /// policy).
    pub fn lookup(&self, deflection: f64, mach: f64, alpha: f64) -> (Vec3, Vec3) {
        assert!(
            self.nholes == 0,
            "infallible lookup on a masked database with {} quarantine \
             hole(s); use lookup_checked",
            self.nholes
        );
        match self.lookup_checked(deflection, mach, alpha) {
            Ok(fm) => fm,
            Err(e) => panic!("lookup failed on a hole-free table: {e}"),
        }
    }

    /// Trilinear interpolation with typed failure: quarantine holes under
    /// the stencil and non-finite queries are errors, never silently
    /// blended placeholder loads.
    pub fn lookup_checked(
        &self,
        deflection: f64,
        mach: f64,
        alpha: f64,
    ) -> Result<(Vec3, Vec3), LookupError> {
        if !(deflection.is_finite() && mach.is_finite() && alpha.is_finite()) {
            return Err(LookupError::NonFiniteQuery {
                deflection,
                mach,
                alpha,
            });
        }
        self.blend(self.cell(deflection, mach, alpha))
            .map_err(|holes| LookupError::QuarantinedRegion {
                deflection,
                mach,
                alpha,
                holes,
            })
    }

    /// Walk the trilinear stencil of a bracketed `cell` (see
    /// [`Self::cell`]): `visit(node, weight, quarantined)` for each
    /// participating corner, in `(dd, dm, da)` order, `node` being the flat
    /// index `(d * nm + m) * na + a`.
    ///
    /// This is the one place the participation rule is written: the upper
    /// corner on an axis is skipped when its weight is zero (an edge or
    /// single-breakpoint cell has no upper node to read), the lower corner
    /// never is — so a hole at a zero-weight *lower* corner still blocks.
    #[inline]
    pub fn stencil(&self, cell: [(usize, f64); 3], mut visit: impl FnMut(usize, f64, bool)) {
        let [(id, td), (im, tm), (ia, ta)] = cell;
        let (nd, nm, na) = self.shape();
        for (dd, wd) in [(0usize, 1.0 - td), (1, td)] {
            if wd == 0.0 && dd == 1 {
                continue;
            }
            let d = (id + dd).min(nd - 1);
            for (dm, wm) in [(0usize, 1.0 - tm), (1, tm)] {
                if wm == 0.0 && dm == 1 {
                    continue;
                }
                let m = (im + dm).min(nm - 1);
                for (da, wa) in [(0usize, 1.0 - ta), (1, ta)] {
                    if wa == 0.0 && da == 1 {
                        continue;
                    }
                    let a = (ia + da).min(na - 1);
                    let n = (d * nm + m) * na + a;
                    visit(n, wd * wm * wa, self.quarantined[n]);
                }
            }
        }
    }

    /// Blend the loads over a bracketed `cell`'s stencil, or report how
    /// many quarantined nodes it touches.
    #[inline]
    pub fn blend(&self, cell: [(usize, f64); 3]) -> Result<(Vec3, Vec3), usize> {
        let mut f = Vec3::ZERO;
        let mut mo = Vec3::ZERO;
        let mut holes = 0usize;
        self.stencil(cell, |n, w, quarantined| {
            if quarantined {
                holes += 1;
            } else {
                f += self.force[n] * w;
                mo += self.moment[n] * w;
            }
        });
        if holes > 0 {
            return Err(holes);
        }
        Ok((f, mo))
    }

    /// Axis lengths `(nd, nm, na)`.
    pub fn shape(&self) -> (usize, usize, usize) {
        (self.deflections.len(), self.machs.len(), self.alphas.len())
    }

    /// The breakpoint axes `(deflections, machs, alphas)`.
    pub fn axes(&self) -> (&[f64], &[f64], &[f64]) {
        (&self.deflections, &self.machs, &self.alphas)
    }

    /// Bracket a flight condition on all three axes:
    /// `[(id, td), (im, tm), (ia, ta)]` — cell index and interpolation
    /// weight per axis, out-of-range inputs clamped. The input of
    /// [`Self::stencil`] and [`Self::blend`]; the cell indices are what
    /// `columbia_core::server::DatabaseServer` tallies query density by.
    pub fn cell(&self, deflection: f64, mach: f64, alpha: f64) -> [(usize, f64); 3] {
        [
            Self::bracket(&self.deflections, deflection),
            Self::bracket(&self.machs, mach),
            Self::bracket(&self.alphas, alpha),
        ]
    }

    /// The (force, moment) stored at grid node `(d, m, a)`.
    pub fn node(&self, d: usize, m: usize, a: usize) -> (Vec3, Vec3) {
        let n = (d * self.machs.len() + m) * self.alphas.len() + a;
        (self.force[n], self.moment[n])
    }

    /// Is grid node `(d, m, a)` a quarantine hole?
    pub fn node_quarantined(&self, d: usize, m: usize, a: usize) -> bool {
        self.quarantined[(d * self.machs.len() + m) * self.alphas.len() + a]
    }

    /// Number of quarantine holes in the table.
    pub fn holes(&self) -> usize {
        self.nholes
    }

    /// Grid coordinates of every quarantine hole, in node order.
    pub fn hole_coords(&self) -> Vec<(usize, usize, usize)> {
        let (_, nm, na) = self.shape();
        self.quarantined
            .iter()
            .enumerate()
            .filter(|(_, &q)| q)
            .map(|(n, _)| (n / (nm * na), (n / na) % nm, n % na))
            .collect()
    }

    /// Repair a quarantine hole with a converged re-run's loads: stores the
    /// values and clears the mask. Returns `false` (and changes nothing) if
    /// the node was not masked.
    pub fn fill_node(&mut self, d: usize, m: usize, a: usize, force: Vec3, moment: Vec3) -> bool {
        let n = (d * self.machs.len() + m) * self.alphas.len() + a;
        if !self.quarantined[n] {
            return false;
        }
        self.force[n] = force;
        self.moment[n] = moment;
        self.quarantined[n] = false;
        self.nholes -= 1;
        true
    }
}

/// Rigid-body state: position, velocity (world frame), attitude quaternion
/// (body -> world), angular rate (body frame).
#[derive(Clone, Copy, Debug)]
pub struct RigidState {
    /// Position (world).
    pub pos: Vec3,
    /// Velocity (world).
    pub vel: Vec3,
    /// Attitude quaternion `(w, x, y, z)`, body -> world.
    pub quat: [f64; 4],
    /// Angular velocity (body frame).
    pub omega: Vec3,
}

impl RigidState {
    /// Level flight at speed (= Mach) `m` along +x.
    pub fn level(m: f64) -> RigidState {
        RigidState {
            pos: Vec3::ZERO,
            vel: Vec3::new(m, 0.0, 0.0),
            quat: [1.0, 0.0, 0.0, 0.0],
            omega: Vec3::ZERO,
        }
    }

    /// Rotate a world vector into the body frame.
    pub fn world_to_body(&self, v: Vec3) -> Vec3 {
        quat_rotate(quat_conj(self.quat), v)
    }

    /// Rotate a body vector into the world frame.
    pub fn body_to_world(&self, v: Vec3) -> Vec3 {
        quat_rotate(self.quat, v)
    }

    /// Angle of attack: angle between the body x-axis and the body-frame
    /// velocity, in the x-z plane.
    pub fn alpha(&self) -> f64 {
        let vb = self.world_to_body(self.vel);
        vb.z.atan2(vb.x)
    }

    /// Flight Mach number (unit sound speed).
    pub fn mach(&self) -> f64 {
        self.vel.norm()
    }
}

fn quat_conj(q: [f64; 4]) -> [f64; 4] {
    [q[0], -q[1], -q[2], -q[3]]
}

fn quat_mul(a: [f64; 4], b: [f64; 4]) -> [f64; 4] {
    [
        a[0] * b[0] - a[1] * b[1] - a[2] * b[2] - a[3] * b[3],
        a[0] * b[1] + a[1] * b[0] + a[2] * b[3] - a[3] * b[2],
        a[0] * b[2] - a[1] * b[3] + a[2] * b[0] + a[3] * b[1],
        a[0] * b[3] + a[1] * b[2] - a[2] * b[1] + a[3] * b[0],
    ]
}

fn quat_rotate(q: [f64; 4], v: Vec3) -> Vec3 {
    let p = [0.0, v.x, v.y, v.z];
    let r = quat_mul(quat_mul(q, p), quat_conj(q));
    Vec3::new(r[1], r[2], r[3])
}

fn quat_normalize(q: &mut [f64; 4]) {
    let n = (q[0] * q[0] + q[1] * q[1] + q[2] * q[2] + q[3] * q[3]).sqrt();
    for c in q.iter_mut() {
        *c /= n;
    }
}

/// Vehicle mass properties and the 6-DOF integrator.
#[derive(Clone, Debug)]
pub struct SixDof {
    /// Aero tables.
    pub db: AeroDatabase,
    /// Vehicle mass (solver units).
    pub mass: f64,
    /// Diagonal body inertia.
    pub inertia: Vec3,
    /// Gravity acceleration (world frame; zero for pure aero studies).
    pub gravity: Vec3,
    /// Aerodynamic rate-damping derivatives (Clp, Cmq, Cnr analogues):
    /// moment -= damping .* omega. Static databases carry no dynamic
    /// derivatives, so damping is supplied as a vehicle property.
    pub rate_damping: Vec3,
    /// Control schedule: time -> elevon deflection.
    pub control: fn(f64) -> f64,
}

impl SixDof {
    /// Time derivative of the state.
    fn deriv(&self, t: f64, s: &RigidState) -> (Vec3, Vec3, [f64; 4], Vec3) {
        let defl = (self.control)(t);
        let mach = s.mach();
        let alpha = s.alpha();
        let (f_body, m_body) = self.db.lookup(defl, mach, alpha);
        // Database force convention: x = downstream (drag), z = lift. In
        // body axes drag opposes the body-frame velocity direction. At zero
        // airspeed there is no flow direction to oppose: the drag term
        // vanishes instead of normalising a zero vector into NaN that the
        // RK4 stages would silently propagate through the whole trajectory.
        let vb = s.world_to_body(s.vel);
        let speed = vb.norm();
        let drag_dir = if speed > 0.0 {
            -(vb / speed)
        } else {
            Vec3::ZERO
        };
        let f_aero_body = drag_dir * f_body.x + Vec3::new(0.0, f_body.y, f_body.z);
        let f_world = s.body_to_world(f_aero_body) + self.gravity * self.mass;
        let acc = f_world / self.mass;
        // Euler's equations with diagonal inertia + rate damping.
        let w = s.omega;
        let i = self.inertia;
        let d = self.rate_damping;
        let dw = Vec3::new(
            (m_body.x - d.x * w.x - (i.z - i.y) * w.y * w.z) / i.x,
            (m_body.y - d.y * w.y - (i.x - i.z) * w.z * w.x) / i.y,
            (m_body.z - d.z * w.z - (i.y - i.x) * w.x * w.y) / i.z,
        );
        // Quaternion kinematics: qdot = 0.5 q * (0, w).
        let qd = quat_mul(s.quat, [0.0, 0.5 * w.x, 0.5 * w.y, 0.5 * w.z]);
        (s.vel, acc, qd, dw)
    }

    /// One RK4 step of size `dt` at time `t`.
    pub fn step(&self, t: f64, s: &RigidState, dt: f64) -> RigidState {
        let add = |s: &RigidState, k: &(Vec3, Vec3, [f64; 4], Vec3), h: f64| RigidState {
            pos: s.pos + k.0 * h,
            vel: s.vel + k.1 * h,
            quat: [
                s.quat[0] + k.2[0] * h,
                s.quat[1] + k.2[1] * h,
                s.quat[2] + k.2[2] * h,
                s.quat[3] + k.2[3] * h,
            ],
            omega: s.omega + k.3 * h,
        };
        let k1 = self.deriv(t, s);
        let k2 = self.deriv(t + 0.5 * dt, &add(s, &k1, 0.5 * dt));
        let k3 = self.deriv(t + 0.5 * dt, &add(s, &k2, 0.5 * dt));
        let k4 = self.deriv(t + dt, &add(s, &k3, dt));
        let mut out = RigidState {
            pos: s.pos + (k1.0 + k2.0 * 2.0 + k3.0 * 2.0 + k4.0) * (dt / 6.0),
            vel: s.vel + (k1.1 + k2.1 * 2.0 + k3.1 * 2.0 + k4.1) * (dt / 6.0),
            quat: [0.0; 4],
            omega: s.omega + (k1.3 + k2.3 * 2.0 + k3.3 * 2.0 + k4.3) * (dt / 6.0),
        };
        for c in 0..4 {
            out.quat[c] =
                s.quat[c] + (k1.2[c] + 2.0 * k2.2[c] + 2.0 * k3.2[c] + k4.2[c]) * (dt / 6.0);
        }
        quat_normalize(&mut out.quat);
        out
    }

    /// Fly a trajectory: `n` steps of `dt`, sampling the state each step.
    pub fn fly(&self, start: RigidState, dt: f64, n: usize) -> Vec<(f64, RigidState)> {
        let mut out = Vec::with_capacity(n + 1);
        let mut s = start;
        let mut t = 0.0;
        out.push((t, s));
        for _ in 0..n {
            s = self.step(t, &s, dt);
            t += dt;
            out.push((t, s));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::database::{CaseStatus, DatabaseEntry};
    use columbia_euler::Forces;

    /// Synthetic linear-aero database: drag = 0.1 + M^2/10, lift = 2 alpha,
    /// pitching moment = -1.0 * alpha (statically stable) + 0.5 defl.
    fn synthetic_db() -> AeroDatabase {
        let mut entries = Vec::new();
        for &d in &[0.0, 0.2] {
            for &m in &[0.5, 1.0, 2.0] {
                for &a in &[-0.1, 0.0, 0.1] {
                    entries.push(DatabaseEntry {
                        deflection: d,
                        mach: m,
                        alpha: a,
                        beta: 0.0,
                        forces: Forces {
                            force: Vec3::new(0.1 + m * m / 10.0, 0.0, 2.0 * a),
                            moment: Vec3::new(0.0, 0.5 * d - a, 0.0),
                        },
                        orders: 5.0,
                        cycles: 0,
                        guard_trips: 0,
                        status: CaseStatus::Converged,
                    });
                }
            }
        }
        AeroDatabase::from_entries(&entries).unwrap()
    }

    fn vehicle(db: AeroDatabase) -> SixDof {
        SixDof {
            db,
            mass: 100.0,
            inertia: Vec3::new(5.0, 5.0, 5.0),
            gravity: Vec3::ZERO,
            rate_damping: Vec3::new(5.0, 5.0, 5.0),
            control: |_| 0.0,
        }
    }

    #[test]
    fn lookup_reproduces_grid_nodes_and_interpolates() {
        let db = synthetic_db();
        let (f, m) = db.lookup(0.0, 1.0, 0.1);
        assert!((f.x - 0.2).abs() < 1e-12);
        assert!((f.z - 0.2).abs() < 1e-12);
        assert!((m.y + 0.1).abs() < 1e-12);
        // Midpoint in Mach: drag averages the two nodes.
        let (f2, _) = db.lookup(0.0, 0.75, 0.0);
        let expect = 0.5 * (0.1 + 0.025) + 0.5 * (0.1 + 0.1);
        assert!((f2.x - expect).abs() < 1e-12, "{} vs {expect}", f2.x);
        // Clamping outside the table.
        let (f3, _) = db.lookup(0.0, 5.0, 0.0);
        assert!((f3.x - 0.5).abs() < 1e-12);
    }

    #[test]
    fn drag_decelerates_the_vehicle() {
        let v = vehicle(synthetic_db());
        let traj = v.fly(RigidState::level(2.0), 0.05, 200);
        let m0 = traj.first().unwrap().1.mach();
        let m1 = traj.last().unwrap().1.mach();
        assert!(m1 < m0 - 0.02, "no deceleration: {m0} -> {m1}");
        // Quaternion stays normalised.
        for (_, s) in &traj {
            let n: f64 = s.quat.iter().map(|q| q * q).sum();
            assert!((n - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn statically_stable_pitch_oscillation_stays_bounded() {
        let v = vehicle(synthetic_db());
        // Start with a pitch disturbance via angular rate.
        let mut s = RigidState::level(1.0);
        s.omega = Vec3::new(0.0, 0.05, 0.0);
        let traj = v.fly(s, 0.02, 800);
        let max_alpha = traj
            .iter()
            .map(|(_, s)| s.alpha().abs())
            .fold(0.0f64, f64::max);
        assert!(
            max_alpha < 0.5,
            "stable vehicle pitched out of bounds: {max_alpha}"
        );
    }

    #[test]
    fn elevon_deflection_trims_to_nonzero_alpha() {
        // With moment = -alpha + 0.5 defl, a constant deflection of 0.2
        // trims at alpha = 0.1; the vehicle should settle near it.
        let mut v = vehicle(synthetic_db());
        v.control = |_| 0.2;
        let traj = v.fly(RigidState::level(1.0), 0.02, 2500);
        let tail: Vec<f64> = traj[1500..].iter().map(|(_, s)| s.alpha()).collect();
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let spread = tail.iter().fold(0.0f64, |m, a| m.max((a - mean).abs()));
        // Static trim is alpha = 0.1; the steady turning flight (lift keeps
        // curving the path) plus rate damping bias it upward a little.
        assert!(
            mean > 0.05 && mean < 0.25,
            "trim alpha {mean} should settle near 0.1"
        );
        assert!(spread < 0.05, "oscillation should be damped out: {spread}");
    }

    #[test]
    fn duplicated_breakpoint_is_a_typed_error_not_a_masked_division() {
        // Regression: `bracket` used to divide by `(v[i+1] - v[i]).max(1e-300)`,
        // so a duplicated Mach breakpoint silently collapsed the weight to an
        // edge instead of being reported. Construction now rejects it.
        let err = AeroDatabase::from_axes(
            vec![0.0],
            vec![0.5, 1.0, 1.0, 2.0],
            vec![0.0],
            vec![Vec3::ZERO; 4],
            vec![Vec3::ZERO; 4],
        )
        .unwrap_err();
        assert_eq!(
            err,
            TableError::NonMonotonic {
                axis: "mach",
                index: 1,
                prev: 1.0,
                next: 1.0,
            }
        );
        assert!(err.to_string().contains("strictly increasing"), "{err}");
    }

    #[test]
    fn descending_and_nonfinite_axes_are_rejected() {
        let desc = AeroDatabase::from_axes(
            vec![0.2, 0.0],
            vec![1.0],
            vec![0.0],
            vec![Vec3::ZERO; 2],
            vec![Vec3::ZERO; 2],
        )
        .unwrap_err();
        assert_eq!(
            desc,
            TableError::NonMonotonic {
                axis: "deflection",
                index: 0,
                prev: 0.2,
                next: 0.0,
            }
        );
        let nan = AeroDatabase::from_axes(
            vec![0.0],
            vec![1.0],
            vec![0.0, f64::NAN],
            vec![Vec3::ZERO; 2],
            vec![Vec3::ZERO; 2],
        )
        .unwrap_err();
        match nan {
            TableError::NonFinite { axis, index, value } => {
                assert_eq!((axis, index), ("alpha", 1));
                assert!(value.is_nan());
            }
            other => panic!("expected NonFinite, got {other:?}"),
        }
        let empty =
            AeroDatabase::from_axes(vec![], vec![1.0], vec![0.0], vec![], vec![]).unwrap_err();
        assert_eq!(empty, TableError::EmptyAxis { axis: "deflection" });
        let shape = AeroDatabase::from_axes(
            vec![0.0],
            vec![0.5, 1.0],
            vec![0.0],
            vec![Vec3::ZERO; 3],
            vec![Vec3::ZERO; 3],
        )
        .unwrap_err();
        assert_eq!(
            shape,
            TableError::BadShape {
                expected: 2,
                got: 3
            }
        );
    }

    #[test]
    fn near_duplicate_entries_still_interpolate_with_bounded_weight() {
        // `from_entries` dedups breakpoints closer than 1e-12, so gaps just
        // above that survive; the interpolation weight must stay in [0, 1].
        let mut entries = Vec::new();
        for &m in &[1.0, 1.0 + 1e-11, 2.0] {
            entries.push(DatabaseEntry {
                deflection: 0.0,
                mach: m,
                alpha: 0.0,
                beta: 0.0,
                forces: Forces {
                    force: Vec3::new(m, 0.0, 0.0),
                    moment: Vec3::ZERO,
                },
                orders: 1.0,
                cycles: 0,
                guard_trips: 0,
                status: CaseStatus::Converged,
            });
        }
        let db = AeroDatabase::from_entries(&entries).unwrap();
        let (f, _) = db.lookup(0.0, 1.0 + 5e-12, 0.0);
        assert!(f.x.is_finite());
        assert!(
            (1.0..=1.0 + 1e-11).contains(&f.x),
            "weight escaped the bracket: {}",
            f.x
        );
    }

    #[test]
    #[should_panic(expected = "tensor grid")]
    fn incomplete_database_panics() {
        let mut entries = Vec::new();
        for &m in &[0.5, 1.0] {
            entries.push(DatabaseEntry {
                deflection: 0.0,
                mach: m,
                alpha: 0.0,
                beta: 0.0,
                forces: Forces::default(),
                orders: 1.0,
                cycles: 0,
                guard_trips: 0,
                status: CaseStatus::Converged,
            });
        }
        entries.push(DatabaseEntry {
            deflection: 0.0,
            mach: 0.5,
            alpha: 0.1,
            beta: 0.0,
            forces: Forces::default(),
            orders: 1.0,
            cycles: 0,
            guard_trips: 0,
            status: CaseStatus::Converged,
        });
        let _ = AeroDatabase::from_entries(&entries);
    }

    /// One entry of `synthetic_db`'s grid turned into a quarantined
    /// placeholder (zero loads), the way a node failure leaves it.
    fn poisoned_entries() -> Vec<DatabaseEntry> {
        let mut entries = Vec::new();
        for &d in &[0.0, 0.2] {
            for &m in &[0.5, 1.0, 2.0] {
                for &a in &[-0.1, 0.0, 0.1] {
                    let poisoned = d == 0.0 && m == 1.0 && a == 0.1;
                    entries.push(DatabaseEntry {
                        deflection: d,
                        mach: m,
                        alpha: a,
                        beta: 0.0,
                        forces: if poisoned {
                            Forces::default()
                        } else {
                            Forces {
                                force: Vec3::new(0.1 + m * m / 10.0, 0.0, 2.0 * a),
                                moment: Vec3::new(0.0, 0.5 * d - a, 0.0),
                            }
                        },
                        orders: if poisoned { 0.0 } else { 5.0 },
                        cycles: 0,
                        guard_trips: 0,
                        status: if poisoned {
                            CaseStatus::Quarantined {
                                attempts: 3,
                                reason: "node failure".into(),
                            }
                        } else {
                            CaseStatus::Converged
                        },
                    });
                }
            }
        }
        entries
    }

    #[test]
    fn quarantined_entry_is_a_typed_construction_error_not_silent_zeros() {
        // Regression: `from_entries` used to tensor-fill quarantined
        // entries' placeholder zero loads, so a poisoned fill silently
        // corrupted every nearby lookup (and any SixDof trajectory flown
        // through it). Strict construction now rejects the table outright.
        let err = AeroDatabase::from_entries(&poisoned_entries()).unwrap_err();
        assert_eq!(
            err,
            TableError::QuarantinedNode {
                deflection: 0.0,
                mach: 1.0,
                alpha: 0.1,
            }
        );
        assert!(err.to_string().contains("quarantined"), "{err}");
    }

    #[test]
    fn masked_database_reports_holes_instead_of_blending_placeholders() {
        let db = AeroDatabase::from_entries_masked(&poisoned_entries()).unwrap();
        assert_eq!(db.holes(), 1);
        assert_eq!(db.hole_coords(), vec![(0, 1, 2)]);
        assert!(db.node_quarantined(0, 1, 2));
        // A stencil touching the hole is a typed error...
        let err = db.lookup_checked(0.0, 1.0, 0.09).unwrap_err();
        match err {
            LookupError::QuarantinedRegion { holes, .. } => assert!(holes >= 1),
            other => panic!("expected QuarantinedRegion, got {other:?}"),
        }
        // ...while stencils clear of it still answer, identically to the
        // clean table.
        let clean = synthetic_db();
        let (f, m) = db.lookup_checked(0.2, 2.0, -0.05).unwrap();
        let (fc, mc) = clean.lookup(0.2, 2.0, -0.05);
        assert_eq!((f, m), (fc, mc));
        // Repairing the hole restores full coverage.
        let mut db = db;
        assert!(db.fill_node(0, 1, 2, Vec3::new(0.2, 0.0, 0.2), Vec3::new(0.0, -0.1, 0.0)));
        assert_eq!(db.holes(), 0);
        let (f, _) = db.lookup_checked(0.0, 1.0, 0.1).unwrap();
        assert!((f.z - 0.2).abs() < 1e-12);
        // A second fill of the same node is a no-op.
        assert!(!db.fill_node(0, 1, 2, Vec3::ZERO, Vec3::ZERO));
    }

    #[test]
    #[should_panic(expected = "masked database")]
    fn infallible_lookup_on_a_holed_table_panics_instead_of_corrupting() {
        let db = AeroDatabase::from_entries_masked(&poisoned_entries()).unwrap();
        // Flying a SixDof through a holed table would silently blend
        // placeholder zeros into the trajectory; the infallible path
        // refuses outright.
        db.lookup(0.0, 1.0, 0.1);
    }

    #[test]
    fn non_finite_queries_are_typed_errors() {
        let db = synthetic_db();
        let err = db.lookup_checked(0.0, f64::NAN, 0.0).unwrap_err();
        match err {
            LookupError::NonFiniteQuery { mach, .. } => assert!(mach.is_nan()),
            other => panic!("expected NonFiniteQuery, got {other:?}"),
        }
        assert!(db.lookup_checked(f64::INFINITY, 1.0, 0.0).is_err());
    }

    #[test]
    fn bracket_binary_search_matches_linear_scan() {
        // The seed's O(n) per-axis scan, kept verbatim as the oracle.
        fn oracle(v: &[f64], x: f64) -> (usize, f64) {
            if v.len() == 1 {
                return (0, 0.0);
            }
            let x = x.clamp(v[0], v[v.len() - 1]);
            let mut i = v.len() - 2;
            for k in 0..v.len() - 1 {
                if x <= v[k + 1] {
                    i = k;
                    break;
                }
            }
            let t = (x - v[i]) / (v[i + 1] - v[i]);
            (i, t.clamp(0.0, 1.0))
        }
        let axes: [&[f64]; 4] = [
            &[0.0],
            &[0.5, 2.0],
            &[-0.3, -0.1, 0.0, 0.4, 1.7],
            &[0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5],
        ];
        for v in axes {
            let mut probes: Vec<f64> = Vec::new();
            // Every breakpoint (exact interior breakpoints land in the
            // lower cell with t = 1.0 — the convention the parity pins),
            // every midpoint, and clamped out-of-range inputs both sides.
            probes.extend_from_slice(v);
            for w in v.windows(2) {
                probes.push(0.5 * (w[0] + w[1]));
            }
            probes.extend_from_slice(&[v[0] - 10.0, v[v.len() - 1] + 10.0]);
            // A seeded sweep between and beyond the extremes.
            let mut rng = columbia_rt::Pcg32::seed_from_u64(0x0B4A_C4E7 ^ v.len() as u64);
            let span = v[v.len() - 1] - v[0];
            for _ in 0..200 {
                probes.push(v[0] - 0.6 * span + 2.2 * span * rng.gen_f64());
            }
            for x in probes {
                let (i, t) = AeroDatabase::bracket(v, x);
                let (oi, ot) = oracle(v, x);
                assert_eq!((i, t), (oi, ot), "axis {v:?}, x = {x}");
            }
        }
    }

    #[test]
    fn zero_airspeed_state_stays_finite() {
        // Regression: deriv normalised the body-frame velocity for the
        // drag direction; from rest that is 0/0. The guard zeroes the drag
        // term instead, so a vehicle at rest (no gravity, symmetric aero)
        // must integrate cleanly and stay put.
        let v = vehicle(synthetic_db());
        let mut s = RigidState::level(0.0);
        s.omega = Vec3::new(0.0, 0.01, 0.0);
        let traj = v.fly(s, 0.02, 50);
        for (_, s) in &traj {
            for c in [
                s.pos.x, s.pos.y, s.pos.z, s.vel.x, s.vel.y, s.vel.z, s.omega.x, s.omega.y,
                s.omega.z,
            ] {
                assert!(c.is_finite(), "state went non-finite: {s:?}");
            }
            for q in s.quat {
                assert!(q.is_finite());
            }
        }
    }
}
