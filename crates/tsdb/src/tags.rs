//! Series identity: metric name plus sorted tag pairs, and tag matching.

use std::fmt;

/// Canonical identity of one series: a metric name and a set of
/// `key=value` tags, held sorted by key so that equal tag sets produce
/// equal keys regardless of insertion order.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SeriesKey {
    metric: String,
    /// Sorted, deduplicated `(key, value)` pairs.
    tags: Vec<(String, String)>,
}

impl SeriesKey {
    /// Creates a key with no tags.
    pub fn metric(name: impl Into<String>) -> Self {
        Self {
            metric: name.into(),
            tags: Vec::new(),
        }
    }

    /// Adds (or replaces) a tag, keeping the tag list sorted.
    pub fn with_tag(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        let key = key.into();
        let value = value.into();
        match self.tags.binary_search_by(|(k, _)| k.as_str().cmp(&key)) {
            Ok(i) => self.tags[i].1 = value,
            Err(i) => self.tags.insert(i, (key, value)),
        }
        self
    }

    /// Removes tag `key`, if present.
    pub(crate) fn without_tag(mut self, key: &str) -> Self {
        if let Ok(i) = self.tags.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            self.tags.remove(i);
        }
        self
    }

    /// The metric name.
    pub fn metric_name(&self) -> &str {
        &self.metric
    }

    /// The sorted tag pairs.
    pub fn tags(&self) -> &[(String, String)] {
        &self.tags
    }

    /// The value of tag `key`, if present.
    pub fn tag(&self, key: &str) -> Option<&str> {
        self.tags
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| self.tags[i].1.as_str())
    }
}

impl fmt::Display for SeriesKey {
    /// Renders as `metric{k=v,k2=v2}` (Prometheus-style).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.metric)?;
        if !self.tags.is_empty() {
            write!(f, "{{")?;
            for (i, (k, v)) in self.tags.iter().enumerate() {
                if i > 0 {
                    write!(f, ",")?;
                }
                write!(f, "{k}={v}")?;
            }
            write!(f, "}}")?;
        }
        Ok(())
    }
}

/// A predicate over series keys used by multi-series queries.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Selector {
    metric: Option<String>,
    /// Tags that must be present with exactly this value.
    equals: Vec<(String, String)>,
    /// Tag keys that must be present with any value.
    has: Vec<String>,
    /// Tag keys that must be absent.
    absent: Vec<String>,
}

impl Selector {
    /// Matches every series.
    pub fn any() -> Self {
        Self::default()
    }

    /// Restricts to series of the given metric name.
    pub fn metric(name: impl Into<String>) -> Self {
        Self {
            metric: Some(name.into()),
            ..Self::default()
        }
    }

    /// Requires tag `key` to equal `value`.
    pub fn tag_eq(mut self, key: impl Into<String>, value: impl Into<String>) -> Self {
        self.equals.push((key.into(), value.into()));
        self
    }

    /// Requires tag `key` to be present with any value.
    pub fn tag_present(mut self, key: impl Into<String>) -> Self {
        self.has.push(key.into());
        self
    }

    /// Requires tag `key` to be absent. Used to hide infrastructure
    /// series (e.g. [`crate::retention::ROLLUP_TAG`]) from selectors
    /// that don't ask for them.
    pub fn tag_absent(mut self, key: impl Into<String>) -> Self {
        self.absent.push(key.into());
        self
    }

    /// True when any clause (equality, presence, or absence) mentions
    /// tag `key` — i.e. the selector already takes a position on it.
    pub fn references_tag(&self, key: &str) -> bool {
        self.equals.iter().any(|(k, _)| k == key)
            || self.has.iter().any(|k| k == key)
            || self.absent.iter().any(|k| k == key)
    }

    /// True when `key` satisfies every clause.
    pub fn matches(&self, key: &SeriesKey) -> bool {
        if let Some(m) = &self.metric {
            if key.metric_name() != m {
                return false;
            }
        }
        self.equals
            .iter()
            .all(|(k, v)| key.tag(k) == Some(v.as_str()))
            && self.has.iter().all(|k| key.tag(k).is_some())
            && self.absent.iter().all(|k| key.tag(k).is_none())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_order_is_canonical() {
        let a = SeriesKey::metric("cpu").with_tag("host", "a").with_tag("dc", "west");
        let b = SeriesKey::metric("cpu").with_tag("dc", "west").with_tag("host", "a");
        assert_eq!(a, b);
        assert_eq!(a.to_string(), "cpu{dc=west,host=a}");
    }

    #[test]
    fn with_tag_replaces_existing() {
        let k = SeriesKey::metric("cpu").with_tag("host", "a").with_tag("host", "b");
        assert_eq!(k.tag("host"), Some("b"));
        assert_eq!(k.tags().len(), 1);
    }

    #[test]
    fn display_without_tags_is_bare_metric() {
        assert_eq!(SeriesKey::metric("load").to_string(), "load");
    }

    #[test]
    fn tag_lookup() {
        let k = SeriesKey::metric("cpu").with_tag("host", "a");
        assert_eq!(k.tag("host"), Some("a"));
        assert_eq!(k.tag("dc"), None);
    }

    #[test]
    fn selector_matching() {
        let k = SeriesKey::metric("cpu").with_tag("host", "a").with_tag("dc", "west");
        assert!(Selector::any().matches(&k));
        assert!(Selector::metric("cpu").matches(&k));
        assert!(!Selector::metric("mem").matches(&k));
        assert!(Selector::metric("cpu").tag_eq("host", "a").matches(&k));
        assert!(!Selector::metric("cpu").tag_eq("host", "b").matches(&k));
        assert!(Selector::any().tag_present("dc").matches(&k));
        assert!(!Selector::any().tag_present("rack").matches(&k));
        assert!(Selector::any()
            .tag_eq("host", "a")
            .tag_present("dc")
            .matches(&k));
    }

    #[test]
    fn absence_clause() {
        let raw = SeriesKey::metric("cpu").with_tag("host", "a");
        let rollup = raw.clone().with_tag("__rollup__", "60");
        let sel = Selector::metric("cpu").tag_absent("__rollup__");
        assert!(sel.matches(&raw));
        assert!(!sel.matches(&rollup));
    }

    #[test]
    fn references_tag_sees_every_clause_kind() {
        assert!(Selector::any().tag_eq("r", "60").references_tag("r"));
        assert!(Selector::any().tag_present("r").references_tag("r"));
        assert!(Selector::any().tag_absent("r").references_tag("r"));
        assert!(!Selector::metric("r").tag_eq("host", "a").references_tag("r"));
    }
}
