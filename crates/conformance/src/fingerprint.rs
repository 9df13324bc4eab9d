//! Service-layer properties: canonical-fingerprint invariance and
//! cold/warm plan-cache replay.
//!
//! The plan cache in `joinopt-service` is only sound if the canonical
//! fingerprint really is invariant under the transformations it claims
//! (relation renumbering and join-edge reordering) and if a cache hit
//! really reproduces the cold run bit for bit. Both claims are pure
//! properties of one instance, so they slot into the fuzz harness next
//! to the metamorphic checks:
//!
//! * [`check_fingerprint`] — relabels the relations by a random
//!   permutation and rebuilds the graph with its edge list reversed;
//!   both variants must produce the *identical* 128-bit fingerprint
//!   **and** the identical canonical encoding (the encoding is what the
//!   cache verifies on lookup, so encoding equality — not just hash
//!   equality — is the load-bearing property).
//! * [`check_cache_replay`] — optimizes the instance twice through one
//!   [`OptimizerService`]: the second answer must come from the cache
//!   and carry bit-identical cost bits and an identical plan tree.

use joinopt_core::Algorithm;
use joinopt_cost::Catalog;
use joinopt_qgraph::bfs;
use joinopt_relset::XorShift64;
use joinopt_service::{canonicalize, OptimizerService, QuerySpec, ServiceRequest};
use joinopt_telemetry::NoopObserver;

use crate::generator::Instance;
use crate::oracle::Divergence;

fn diverge(check: &'static str, detail: String) -> Divergence {
    Divergence { check, detail }
}

fn capture(inst: &Instance, check: &'static str) -> Result<QuerySpec, Divergence> {
    QuerySpec::capture(&inst.graph, &inst.catalog)
        .map_err(|e| diverge(check, format!("{}: capture failed: {e}", inst.name)))
}

/// Renumbering + edge-reordering invariance of the canonical
/// fingerprint, checked on every instance (connected or not — the
/// fingerprint must be total).
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_fingerprint(inst: &Instance) -> Result<(), Divergence> {
    let base = canonicalize(&capture(inst, "fingerprint-renumber")?);
    check_fingerprint_renumber(inst, &base)?;
    check_fingerprint_reorder(inst, &base)
}

fn check_fingerprint_renumber(
    inst: &Instance,
    base: &joinopt_service::CanonicalForm,
) -> Result<(), Divergence> {
    let n = inst.graph.num_relations();
    // A different salt from the metamorphic renumbering check, so the
    // two properties exercise different permutations of each instance.
    let mut rng = XorShift64::seed_from_u64(inst.seed ^ 0x466e_6772_7072_6e74); // "Fngrprnt"
    let mut order: Vec<usize> = (0..n).collect();
    rng.shuffle(&mut order);
    // `renumber` preserves edge order, so selectivities keep their edge
    // ids; only the cardinalities move with their relations.
    let graph = bfs::renumber(&inst.graph, &order);
    let mut catalog = Catalog::with_shape(n, inst.graph.num_edges());
    for (new, &old) in order.iter().enumerate() {
        catalog
            .set_cardinality(new, inst.catalog.cardinality(old))
            .map_err(|e| {
                diverge(
                    "fingerprint-renumber",
                    format!("{}: permuted catalog rejected: {e}", inst.name),
                )
            })?;
    }
    for e in 0..inst.graph.num_edges() {
        catalog
            .set_selectivity(e, inst.catalog.selectivity(e))
            .map_err(|e| {
                diverge(
                    "fingerprint-renumber",
                    format!("{}: permuted catalog rejected: {e}", inst.name),
                )
            })?;
    }
    let renamed = QuerySpec::capture(&graph, &catalog).map_err(|e| {
        diverge(
            "fingerprint-renumber",
            format!("{}: renumbered capture failed: {e}", inst.name),
        )
    })?;
    let renamed = canonicalize(&renamed);
    if renamed.fingerprint != base.fingerprint || renamed.encoding != base.encoding {
        return Err(diverge(
            "fingerprint-renumber",
            format!(
                "{}: canonical form changed under relabeling {order:?}: {} vs {}",
                inst.name, renamed.fingerprint, base.fingerprint
            ),
        ));
    }
    Ok(())
}

fn check_fingerprint_reorder(
    inst: &Instance,
    base: &joinopt_service::CanonicalForm,
) -> Result<(), Divergence> {
    let n = inst.graph.num_relations();
    let m = inst.graph.num_edges();
    let edges: Vec<_> = inst.graph.edges().iter().map(|e| (e.u, e.v)).collect();
    let graph =
        joinopt_qgraph::QueryGraph::from_edges(n, edges.iter().rev().copied()).map_err(|e| {
            diverge(
                "fingerprint-reorder",
                format!("{}: reversed edge list rejected: {e}", inst.name),
            )
        })?;
    let mut catalog = Catalog::with_shape(n, m);
    for r in 0..n {
        catalog
            .set_cardinality(r, inst.catalog.cardinality(r))
            .map_err(|e| {
                diverge(
                    "fingerprint-reorder",
                    format!("{}: reordered catalog rejected: {e}", inst.name),
                )
            })?;
    }
    // Edge id `e` in the reversed graph is edge `m - 1 - e` of the
    // original, and must carry that edge's selectivity.
    for e in 0..m {
        catalog
            .set_selectivity(e, inst.catalog.selectivity(m - 1 - e))
            .map_err(|e| {
                diverge(
                    "fingerprint-reorder",
                    format!("{}: reordered catalog rejected: {e}", inst.name),
                )
            })?;
    }
    let reordered = QuerySpec::capture(&graph, &catalog).map_err(|e| {
        diverge(
            "fingerprint-reorder",
            format!("{}: reordered capture failed: {e}", inst.name),
        )
    })?;
    let reordered = canonicalize(&reordered);
    if reordered.fingerprint != base.fingerprint || reordered.encoding != base.encoding {
        return Err(diverge(
            "fingerprint-reorder",
            format!(
                "{}: canonical form changed under edge reordering: {} vs {}",
                inst.name, reordered.fingerprint, base.fingerprint
            ),
        ));
    }
    Ok(())
}

/// Cold/warm cache replay: the second optimization of an instance
/// through one [`OptimizerService`] must hit the cache and return
/// bit-identical cost bits and an identical plan tree. Skipped for
/// instances the optimizer rejects outright (disconnected or
/// single-relation graphs).
///
/// # Errors
///
/// Returns the first [`Divergence`] found.
pub fn check_cache_replay(inst: &Instance) -> Result<(), Divergence> {
    if inst.graph.num_relations() < 2 || !inst.graph.is_connected() {
        return Ok(());
    }
    let spec = capture(inst, "cache-replay")?;
    let service = OptimizerService::default();
    let request = ServiceRequest::new(spec).with_algorithm(Algorithm::DpCcp);
    let cold = service
        .submit_one(&request, &mut None, &NoopObserver)
        .map_err(|e| {
            diverge(
                "cache-replay",
                format!("{}: cold run failed: {e}", inst.name),
            )
        })?;
    if cold.cache_hit {
        return Err(diverge(
            "cache-replay",
            format!("{}: first run of a fresh service hit the cache", inst.name),
        ));
    }
    let warm = service
        .submit_one(&request, &mut None, &NoopObserver)
        .map_err(|e| {
            diverge(
                "cache-replay",
                format!("{}: warm run failed: {e}", inst.name),
            )
        })?;
    if !warm.cache_hit {
        return Err(diverge(
            "cache-replay",
            format!("{}: second identical request missed the cache", inst.name),
        ));
    }
    if warm.result.cost.to_bits() != cold.result.cost.to_bits() {
        return Err(diverge(
            "cache-replay",
            format!(
                "{}: warm cost bits differ from cold: {:016x} vs {:016x}",
                inst.name,
                warm.result.cost.to_bits(),
                cold.result.cost.to_bits()
            ),
        ));
    }
    if warm.result.tree != cold.result.tree {
        return Err(diverge(
            "cache-replay",
            format!("{}: warm plan tree differs from cold", inst.name),
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{self, generate_instance};

    #[test]
    fn clean_instances_satisfy_both_properties() {
        for index in 0..15 {
            let inst = generate_instance(77, index, 8);
            check_fingerprint(&inst).unwrap_or_else(|d| panic!("{}: {d}", inst.name));
            check_cache_replay(&inst).unwrap_or_else(|d| panic!("{}: {d}", inst.name));
        }
    }

    #[test]
    fn tie_rich_instances_pass() {
        for n in [2, 6] {
            let inst = generator::tie_rich_chain(n);
            check_fingerprint(&inst).unwrap();
            check_cache_replay(&inst).unwrap();
        }
    }
}
