//! The six workloads: data size, storage tier, front end and statement
//! mix of each, and the seeded generator that turns a mix into the SQL
//! text the program sees.
//!
//! Data is always TPC-D (+ the paper's EMP/DEPT tables) generated with
//! [`DATA_SEED`]; `--seed` sets the order in which a pass runs its
//! statements (per client). Every pass of one run is the same statement
//! list, and every seed draws from the same fixed pool of literal variants
//! per class, so the committed `expected/*.digest` files cover any seed and
//! two seeds do equal work.

use decorr_tpcd::gen::{CONTAINERS, NATIONS, PART_TYPES, REGIONS, SEGMENTS};
use decorr_tpcd::{cardinalities, Cardinalities};

use crate::util::{fnv64, Rng};

/// Seed of the generated tables (what `\load tpcd` uses too).
pub const DATA_SEED: u64 = 42;
/// Data scale of every workload under `--smoke`.
pub const SMOKE_SCALE: f64 = 0.005;
/// Rows the churn writer appends to `lineitem` per commit.
pub const CHURN_INSERT_ROWS: usize = 100;
/// Reads between two writer cycles on `serve.churn`.
pub const CHURN_READS_PER_WRITE: u64 = 50;
/// Writer commits between two checkpoints on `serve.churn`.
pub const CHURN_COMMITS_PER_CHECKPOINT: u64 = 10;

/// How a reply is checked.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Check {
    /// Row-multiset digest against `expected/<workload>.digest`.
    Digest,
    /// `count(*)` of `lineitem` must equal what the reply's own epoch
    /// implies (base rows + 100 per committed insert) — the one churn
    /// statement whose answer the writer changes.
    LineitemCount,
}

/// One statement template with a fixed pool of literal variants.
pub struct Class {
    pub name: &'static str,
    pub variants: usize,
    pub sql: fn(usize, &Cardinalities) -> String,
    pub check: Check,
}

fn q1a(v: usize, _: &Cardinalities) -> String {
    let nation = NATIONS[(v * 7 + 5) % NATIONS.len()];
    let size = 1 + (v * 11 + 14) % 25;
    let ty = PART_TYPES[(v * 3) % PART_TYPES.len()];
    format!(
        "Select s.s_name, s.s_acctbal, s.s_address, s.s_phone, s.s_comment \
         From Parts p, Suppliers s, Partsupp ps \
         Where s.s_nation = '{nation}' and p.p_size = {size} and p.p_type = '{ty}' \
         and p.p_partkey = ps.ps_partkey and s.s_suppkey = ps.ps_suppkey \
         and ps.ps_supplycost = \
         (Select min(ps1.ps_supplycost) From Partsupp ps1, Suppliers s1 \
         Where p.p_partkey = ps1.ps_partkey and s1.s_suppkey = ps1.ps_suppkey \
         and s1.s_nation = '{nation}')"
    )
}

/// Two distinct indices below `n`, varying with `v`.
fn pair(v: usize, n: usize) -> (usize, usize) {
    let a = v % n;
    (a, (a + 1 + (v / n) % (n - 1)) % n)
}

fn q1b(v: usize, _: &Cardinalities) -> String {
    let (a, b) = pair(v + 5, REGIONS.len());
    let (r1, r2) = (REGIONS[a], REGIONS[b]);
    let ty = PART_TYPES[(v * 3) % PART_TYPES.len()];
    format!(
        "Select s.s_name, s.s_acctbal, s.s_address, s.s_phone, s.s_comment \
         From Parts p, Suppliers s, Partsupp ps \
         Where s.s_region in ('{r1}', '{r2}') and p.p_type = '{ty}' \
         and p.p_partkey = ps.ps_partkey and s.s_suppkey = ps.ps_suppkey \
         and ps.ps_supplycost = \
         (Select min(ps1.ps_supplycost) From Partsupp ps1, Suppliers s1 \
         Where p.p_partkey = ps1.ps_partkey and s1.s_suppkey = ps1.ps_suppkey \
         and s1.s_region in ('{r1}', '{r2}'))"
    )
}

fn q2(v: usize, _: &Cardinalities) -> String {
    let brand = format!("Brand#{}{}", 1 + (v + 1) % 5, 1 + (v / 5 + 2) % 5);
    let container = CONTAINERS[v % CONTAINERS.len()];
    format!(
        "Select sum(l.l_extendedprice * l.l_quantity) / 5 \
         From Lineitem l, Parts p \
         Where p.p_partkey = l.l_partkey and p.p_brand = '{brand}' \
         and p.p_container = '{container}' \
         and l.l_quantity < \
         (Select 0.2 * avg(l1.l_quantity) From Lineitem l1 \
         Where l1.l_partkey = p.p_partkey)"
    )
}

fn q3(v: usize, _: &Cardinalities) -> String {
    let (a, b) = pair(v, SEGMENTS.len());
    let (s1, s2) = (SEGMENTS[a], SEGMENTS[b]);
    let region = REGIONS[(v + 1) % REGIONS.len()];
    format!(
        "Select s.s_name, s.s_acctbal, sumbal \
         From Suppliers s, DT(sumbal) AS \
         (Select sum(bal) From DDT(bal) AS \
         ((Select a.c_acctbal From Customers a \
         Where a.c_mktsegment = '{s1}' and a.c_nation = s.s_nation) \
         Union All \
         (Select b.c_acctbal From Customers b \
         Where b.c_mktsegment = '{s2}' and b.c_nation = s.s_nation))) \
         Where s.s_region = '{region}'"
    )
}

fn empdept(v: usize, _: &Cardinalities) -> String {
    let budget = 4000 + 1000 * v;
    format!(
        "Select D.name From Dept D \
         Where D.budget < {budget} and D.num_emps > \
         (Select Count(*) From Emp E Where D.building = E.building)"
    )
}

fn count(v: usize, _: &Cardinalities) -> String {
    let nation = NATIONS[(v * 3 + 1) % NATIONS.len()];
    format!("Select count(*) From Customers c Where c.c_nation = '{nation}'")
}

fn point(v: usize, c: &Cardinalities) -> String {
    let key = 1 + (v * 13) % c.suppliers;
    format!("Select s.s_name, s.s_acctbal From Suppliers s Where s.s_suppkey = {key}")
}

/// At least a thousand rows back at scale 0.05 (30 000 lineitem rows,
/// quantity uniform in 1..=50): the statement that makes render and the
/// wire carry real bytes.
fn wide(v: usize, _: &Cardinalities) -> String {
    let q = 45 + v % 3;
    format!(
        "Select l.l_orderkey, l.l_quantity, l.l_extendedprice \
         From Lineitem l Where l.l_quantity > {q}"
    )
}

fn scan(_: usize, _: &Cardinalities) -> String {
    "Select count(*), sum(l.l_extendedprice) From Lineitem l".into()
}

/// `l_orderkey` is the insertion order, so zone maps prune every stripe
/// past the bound.
fn pruned(v: usize, c: &Cardinalities) -> String {
    let bound = (v + 1) * c.lineitem / 16;
    format!("Select count(*) From Lineitem l Where l.l_orderkey < {bound}")
}

fn count_lineitem(_: usize, _: &Cardinalities) -> String {
    "Select count(*) From Lineitem l".into()
}

macro_rules! class {
    ($name:ident, $variants:expr) => {
        class!($name, $variants, Check::Digest)
    };
    ($name:ident, $variants:expr, $check:expr) => {
        Class { name: stringify!($name), variants: $variants, sql: $name, check: $check }
    };
}

static Q1A: Class = class!(q1a, 8);
static Q1B: Class = class!(q1b, 8);
static Q2: Class = class!(q2, 8);
static Q3: Class = class!(q3, 8);
static EMPDEPT: Class = class!(empdept, 8);
static COUNT: Class = class!(count, 8);
static POINT: Class = class!(point, 8);
static WIDE: Class = class!(wide, 3);
static SCAN: Class = class!(scan, 1);
static PRUNED: Class = class!(pruned, 8);
static COUNT_LINEITEM: Class = class!(count_lineitem, 1, Check::LineitemCount);

/// `count` statements of `class` per pass, run under `strategy`
/// (`auto` = the cost race, else a `\strategy` pin).
pub struct Mix {
    pub class: &'static Class,
    pub strategy: &'static str,
    pub count: usize,
}

impl Mix {
    /// The per-class row label of the record.
    pub fn label(&self) -> String {
        format!("{}/{}", self.class.name, self.strategy)
    }
}

fn mix(class: &'static Class, strategies: &[&'static str], count: usize) -> Vec<Mix> {
    strategies
        .iter()
        .map(|&strategy| Mix { class, strategy, count })
        .collect()
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Storage {
    /// `SharedCatalog::new`: rows in memory, nothing on disk.
    Resident,
    /// `SharedCatalog::open_durable` on the real filesystem with this
    /// buffer pool; fsync-before-ack as shipped.
    Durable { pool_bytes: usize },
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Front {
    /// One in-process `Session`; the caller waits for each reply.
    Session,
    /// `decorr_server::serve` on loopback with this many closed-loop
    /// `LineClient` connections.
    Server { clients: usize },
}

pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub scale: f64,
    pub indexes: bool,
    pub storage: Storage,
    pub front: Front,
    pub plan_cache: bool,
    /// A writer beside the reader (`serve.churn`).
    pub churn: bool,
    /// Full set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub mix: Vec<Mix>,
}

pub const NAMES: [&str; 6] = [
    "plan.cold",
    "exec.resident",
    "paged.fits",
    "paged.thrash",
    "serve.repeat",
    "serve.churn",
];

const AUTO: &[&str] = &["auto"];

/// Statement counts of the two `serve.*` mixes: Zipf-like (35, 18, 12, 9,
/// … of the shapes in turn) with the shapes ranked so that the 50th and
/// the 90th percentile of a pass each fall well inside one shape's share
/// — on the border between a cheap and a dear shape a percentile jumps
/// from run to run — and that shape costs at least half a millisecond, so
/// that thread wake-ups on loopback (tens of microseconds, and bimodal on
/// two cores) do not decide it.
///
/// Over the wire on resident indexed data the median is a `q2` and the
/// 90th percentile a `q1b`.
const SERVE_REPEAT: [(&Class, usize); 8] = [
    (&Q2, 35),
    (&Q3, 18),
    (&Q1B, 12),
    (&EMPDEPT, 9),
    (&Q1A, 7),
    (&COUNT, 6),
    (&POINT, 5),
    (&WIDE, 1),
];

/// On paged tables without indexes `q2` costs tens of milliseconds, so it
/// moves down the ranks: the median is a `q1a`, the 90th percentile a
/// `q2`. A pass is `CHURN_READS_PER_WRITE` statements, so that every pass
/// carries one writer cycle's worth of emptied caches and no pass is free
/// of them.
const SERVE_CHURN: [(&Class, usize); 9] = [
    (&Q1A, 15),
    (&Q3, 8),
    (&EMPDEPT, 7),
    (&Q2, 7),
    (&Q1B, 5),
    (&COUNT, 3),
    (&POINT, 2),
    (&WIDE, 1),
    (&COUNT_LINEITEM, 2),
];

fn counted(classes: &[(&'static Class, usize)]) -> Vec<Mix> {
    classes
        .iter()
        .flat_map(|&(class, count)| mix(class, AUTO, count))
        .collect()
}

/// 15 statements a pass, counted so that the median falls inside the
/// `q1a` share (eight variants of nearly equal cost) and the 90th
/// percentile on the full scan.
fn paged_mix() -> Vec<Mix> {
    counted(&[
        (&SCAN, 1),
        (&PRUNED, 2),
        (&Q1A, 8),
        (&Q1B, 2),
        (&Q2, 1),
        (&Q3, 1),
    ])
}

impl Spec {
    pub fn named(name: &str, smoke: bool) -> Option<Spec> {
        let sized = |scale: f64| if smoke { SMOKE_SCALE } else { scale };
        let pool = |bytes: usize| if smoke { bytes / 8 } else { bytes };
        let base = Spec {
            name: "",
            why: "",
            scale: sized(0.1),
            indexes: true,
            storage: Storage::Resident,
            front: Front::Session,
            plan_cache: true,
            churn: false,
            setup_reps: if smoke { 1 } else { 5 },
            mix: Vec::new(),
        };
        Some(match name {
            "plan.cold" => Spec {
                name: "plan.cold",
                why: "tiny data, plan cache off: lex/parse/bind, five rewrites, estimates \
                      and the race are most of every statement",
                scale: sized(0.01),
                plan_cache: false,
                mix: [&Q1A, &Q1B, &Q2, &Q3, &EMPDEPT]
                    .into_iter()
                    .flat_map(|c| mix(c, AUTO, 8))
                    .collect(),
                ..base
            },
            "exec.resident" => Spec {
                name: "exec.resident",
                why: "resident indexed data, plans cached, every figure query under auto \
                      and each pinned strategy: the executor does the work, planning none",
                mix: {
                    // 23 (query, strategy) rows of equal weight: the median
                    // is the middle of the 12th, the 90th percentile lies
                    // inside the 21st.
                    let mut m = mix(&Q1A, &["auto", "ni", "magic", "optmag", "dayal"], 2);
                    m.extend(mix(&Q1B, &["auto", "ni", "magic", "optmag", "dayal"], 2));
                    m.extend(mix(&Q2, &["auto", "ni", "magic", "optmag", "dayal"], 2));
                    m.extend(mix(&Q3, &["auto", "ni", "magic"], 2));
                    m.extend(mix(
                        &EMPDEPT,
                        &["auto", "ni", "magic", "dayal", "ganski"],
                        2,
                    ));
                    m
                },
                ..base
            },
            "paged.fits" => Spec {
                name: "paged.fits",
                why: "durable paged tables under a pool 9x the decoded data: every page \
                      is a pool hit, so the column-to-row stitch is what is timed",
                indexes: false,
                storage: Storage::Durable { pool_bytes: pool(64 << 20) },
                mix: paged_mix(),
                ..base
            },
            "paged.thrash" => Spec {
                name: "paged.thrash",
                why: "same statements and data under a pool a quarter of the decoded \
                      data: miss, decode, evict on every scan",
                indexes: false,
                storage: Storage::Durable { pool_bytes: pool(2 << 20) },
                mix: paged_mix(),
                ..base
            },
            "serve.repeat" => Spec {
                name: "serve.repeat",
                why: "TCP service, 2 closed-loop clients, Zipf-repeated shapes with \
                      varying literals: session, plan cache, render and wire dominate",
                scale: sized(0.05),
                front: Front::Server { clients: 2 },
                mix: counted(&SERVE_REPEAT),
                ..base
            },
            "serve.churn" => Spec {
                name: "serve.churn",
                why: "same service, durable, 1 reader beside 1 writer that commits, \
                      analyzes and checkpoints: every cache is emptied again and again",
                scale: sized(0.05),
                indexes: false,
                storage: Storage::Durable { pool_bytes: pool(64 << 20) },
                front: Front::Server { clients: 1 },
                churn: true,
                mix: counted(&SERVE_CHURN),
                ..base
            },
            _ => return None,
        })
    }

    pub fn cardinalities(&self) -> Cardinalities {
        cardinalities(self.scale)
    }

    /// Client connections in the measured window.
    pub fn clients(&self) -> usize {
        match self.front {
            Front::Session => 1,
            Front::Server { clients } => clients,
        }
    }

    /// Every statement of the variant pool, for `bless`:
    /// `(class, sql)` without duplicates.
    pub fn pool(&self) -> Vec<(&'static Class, String)> {
        let card = self.cardinalities();
        let mut seen = Vec::new();
        let mut out = Vec::new();
        for m in &self.mix {
            if m.class.check != Check::Digest || seen.contains(&m.class.name) {
                continue;
            }
            seen.push(m.class.name);
            for v in 0..m.class.variants {
                out.push((m.class, (m.class.sql)(v, &card)));
            }
        }
        out
    }
}

/// One generated statement of a pass.
pub struct Stmt {
    /// Index into [`Spec::mix`].
    pub mix: usize,
    pub sql: String,
    /// `fnv64` of the SQL text: the key into the expected-digest file.
    pub key: u64,
}

pub fn sql_key(sql: &str) -> u64 {
    fnv64(sql.as_bytes())
}

/// The statements of one pass, grouped by strategy pin so a pass switches
/// `\strategy` once per block, not once per statement.
pub struct Pass {
    pub blocks: Vec<(&'static str, Vec<Stmt>)>,
}

impl Pass {
    /// The seeded pass of one client. The seed sets the order inside each
    /// block. Which statements run does not depend on it — a class always
    /// runs the first `count` variants of its pool, round-robin — so two
    /// seeds, and two clients, do exactly the same work in different orders.
    pub fn generate(spec: &Spec, seed: u64, client: usize) -> Pass {
        let card = spec.cardinalities();
        let mut rng = Rng::new(seed ^ ((client as u64 + 1) << 32));
        let mut blocks: Vec<(&'static str, Vec<Stmt>)> = Vec::new();
        for (i, m) in spec.mix.iter().enumerate() {
            let block = match blocks.iter().position(|(s, _)| *s == m.strategy) {
                Some(b) => b,
                None => {
                    blocks.push((m.strategy, Vec::new()));
                    blocks.len() - 1
                }
            };
            for j in 0..m.count {
                let sql = (m.class.sql)(j % m.class.variants, &card);
                let key = sql_key(&sql);
                blocks[block].1.push(Stmt { mix: i, sql, key });
            }
        }
        for (_, stmts) in &mut blocks {
            rng.shuffle(stmts);
        }
        Pass { blocks }
    }

    pub fn len(&self) -> usize {
        self.blocks.iter().map(|(_, s)| s.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn statements(pass: &Pass) -> Vec<(&'static str, u64)> {
        let mut all: Vec<_> = pass
            .blocks
            .iter()
            .flat_map(|(strategy, stmts)| stmts.iter().map(move |s| (*strategy, s.key)))
            .collect();
        all.sort_unstable();
        all
    }

    #[test]
    fn every_seed_and_client_runs_the_same_statements_in_another_order() {
        for name in NAMES {
            for smoke in [false, true] {
                let spec = Spec::named(name, smoke).expect(name);
                let a = Pass::generate(&spec, 1, 0);
                let b = Pass::generate(&spec, 2, 1);
                assert_eq!(statements(&a), statements(&b), "{name}");
                assert_eq!(a.len(), spec.mix.iter().map(|m| m.count).sum::<usize>());
                let order = |p: &Pass| p.blocks[0].1.iter().map(|s| s.key).collect::<Vec<_>>();
                assert_ne!(
                    order(&a),
                    order(&b),
                    "{name}: the seed must change the order"
                );
            }
        }
    }

    #[test]
    fn the_variant_pool_covers_every_digest_checked_statement() {
        for name in NAMES {
            let spec = Spec::named(name, false).expect(name);
            let pool: Vec<u64> = spec.pool().iter().map(|(_, sql)| sql_key(sql)).collect();
            for (_, stmts) in Pass::generate(&spec, 9, 0).blocks {
                for s in stmts {
                    let checked = spec.mix[s.mix].class.check == Check::Digest;
                    assert_eq!(checked, pool.contains(&s.key), "{name}: {}", s.sql);
                }
            }
        }
    }
}
