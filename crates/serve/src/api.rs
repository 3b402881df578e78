//! The typed query API: requests, responses, query classes.
//!
//! One request enum covers the repo's whole query surface — the SQL
//! front-end, [`db::Select`] predicate trees on any of the three table
//! engines, the Fig. 6 graph-neighbor query, `GROUP BY` counts, and raw
//! point lookups — and every response carries the epoch it was answered
//! at, so callers can correlate answers across a rotating registry.

use std::fmt;
use std::sync::Arc;

use db::{PredExpr, ResultSet};
use hypersparse::Ix;

/// Which table engine answers a view-parametric request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum View {
    /// The D4M exploded-schema associative array (mask algebra).
    Assoc,
    /// The NoSQL triple store (index hops).
    Triple,
    /// The SQL-flavoured row store (full scan).
    Row,
}

impl View {
    /// Stable lowercase label (cache keys, metrics).
    pub fn label(self) -> &'static str {
        match self {
            View::Assoc => "assoc",
            View::Triple => "triple",
            View::Row => "row",
        }
    }
}

/// One query against a pinned epoch.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryRequest {
    /// SQL text through the typed parser
    /// (`SELECT cols FROM t WHERE ...`).
    Sql {
        /// The query text.
        text: String,
    },
    /// A [`db::Select`] predicate-combinator tree on one engine;
    /// answers with matching record ids, sorted.
    Select {
        /// The engine to ask.
        view: View,
        /// The predicate tree (`Pred::eq(..).and(..)` …).
        expr: PredExpr,
    },
    /// Fig. 6's "nearest neighbors of `host`" on one engine.
    Neighbors {
        /// The engine to ask.
        view: View,
        /// The host key (e.g. `h7` under the flows schema).
        host: String,
    },
    /// `GROUP BY field COUNT(*)` on one engine.
    GroupCount {
        /// The engine to ask.
        view: View,
        /// The field to group on.
        field: String,
    },
    /// Raw point lookup in the snapshot matrix (no table build).
    Point {
        /// Row key.
        row: Ix,
        /// Column key.
        col: Ix,
    },
}

impl QueryRequest {
    /// Convenience constructor for SQL requests.
    pub fn sql(text: impl Into<String>) -> Self {
        QueryRequest::Sql { text: text.into() }
    }

    /// The request's class (histogram bucket).
    pub fn class(&self) -> QueryClass {
        match self {
            QueryRequest::Sql { .. } => QueryClass::Sql,
            QueryRequest::Select { .. } => QueryClass::Select,
            QueryRequest::Neighbors { .. } => QueryClass::Neighbors,
            QueryRequest::GroupCount { .. } => QueryClass::GroupCount,
            QueryRequest::Point { .. } => QueryClass::Point,
        }
    }

    /// Canonical cache key, or `None` for requests cheaper than a cache
    /// probe (point lookups).
    pub(crate) fn cache_key(&self) -> Option<String> {
        match self {
            QueryRequest::Sql { text } => Some(format!("sql:{text}")),
            QueryRequest::Select { view, expr } => {
                Some(format!("select:{}:{expr:?}", view.label()))
            }
            QueryRequest::Neighbors { view, host } => {
                Some(format!("neighbors:{}:{host}", view.label()))
            }
            QueryRequest::GroupCount { view, field } => {
                Some(format!("group:{}:{field}", view.label()))
            }
            QueryRequest::Point { .. } => None,
        }
    }
}

/// Per-class latency buckets, declared in [`QueryClass::ALL`] order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum QueryClass {
    /// SQL text queries.
    Sql,
    /// Predicate-tree selects.
    Select,
    /// Graph-neighbor queries.
    Neighbors,
    /// Group-by counts.
    GroupCount,
    /// Point lookups.
    Point,
}

impl QueryClass {
    /// Every class, in histogram-index order.
    pub const ALL: [QueryClass; 5] = [
        QueryClass::Sql,
        QueryClass::Select,
        QueryClass::Neighbors,
        QueryClass::GroupCount,
        QueryClass::Point,
    ];

    /// Stable lowercase label (the Prometheus `class` label).
    pub fn label(self) -> &'static str {
        match self {
            QueryClass::Sql => "sql",
            QueryClass::Select => "select",
            QueryClass::Neighbors => "neighbors",
            QueryClass::GroupCount => "group_count",
            QueryClass::Point => "point",
        }
    }

    /// Index into per-class arrays.
    pub(crate) fn index(self) -> usize {
        self as usize
    }
}

impl fmt::Display for QueryClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

/// The payload of a [`QueryResponse`].
#[derive(Clone, Debug, PartialEq)]
pub enum ResponseBody {
    /// A SQL result (id-sorted rows, named columns).
    Table(ResultSet),
    /// Matching record ids, sorted ascending.
    Ids(Vec<String>),
    /// Neighbor host keys, sorted ascending.
    Hosts(Vec<String>),
    /// `(group value, count)` pairs, sorted by group value.
    Counts(Vec<(String, usize)>),
    /// A point value rendered through `Display`, if stored.
    Cell(Option<String>),
}

impl ResponseBody {
    /// The table payload, if this is a SQL response.
    pub fn as_table(&self) -> Option<&ResultSet> {
        match self {
            ResponseBody::Table(t) => Some(t),
            _ => None,
        }
    }

    /// The id-list payload, if this is a select response.
    pub fn as_ids(&self) -> Option<&[String]> {
        match self {
            ResponseBody::Ids(v) => Some(v),
            _ => None,
        }
    }

    /// The host-list payload, if this is a neighbors response.
    pub fn as_hosts(&self) -> Option<&[String]> {
        match self {
            ResponseBody::Hosts(v) => Some(v),
            _ => None,
        }
    }

    /// The counts payload, if this is a group-count response.
    pub fn as_counts(&self) -> Option<&[(String, usize)]> {
        match self {
            ResponseBody::Counts(v) => Some(v),
            _ => None,
        }
    }

    /// The cell payload, if this is a point response.
    pub fn as_cell(&self) -> Option<Option<&str>> {
        match self {
            ResponseBody::Cell(v) => Some(v.as_deref()),
            _ => None,
        }
    }
}

/// An answered query: the epoch it ran against, whether the LRU cache
/// supplied the body, and the (shared) body itself.
#[derive(Clone, Debug)]
pub struct QueryResponse {
    /// The epoch this answer is consistent with.
    pub epoch: u64,
    /// True when the body came from the sub-view cache.
    pub cached: bool,
    /// The payload; `Arc`-shared with the cache, so repeated hits never
    /// copy result data.
    pub body: Arc<ResponseBody>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use db::Pred;

    #[test]
    fn cache_keys_are_canonical_and_disjoint() {
        let a = QueryRequest::sql("SELECT src FROM t WHERE dst = 'h1'");
        let b = QueryRequest::Select {
            view: View::Assoc,
            expr: Pred::eq("dst", "h1").expr(),
        };
        let c = QueryRequest::Select {
            view: View::Row,
            expr: Pred::eq("dst", "h1").expr(),
        };
        let keys: Vec<String> = [&a, &b, &c]
            .iter()
            .map(|q| q.cache_key().unwrap())
            .collect();
        assert_eq!(keys.len(), 3);
        assert!(keys
            .iter()
            .all(|k| keys.iter().filter(|x| *x == k).count() == 1));
        assert!(QueryRequest::Point { row: 1, col: 2 }.cache_key().is_none());
    }

    #[test]
    fn classes_have_stable_labels() {
        assert_eq!(QueryClass::ALL.len(), 5);
        for (i, c) in QueryClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(QueryClass::GroupCount.to_string(), "group_count");
    }
}
