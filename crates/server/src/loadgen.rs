//! Reading the server's own telemetry back out of a `metrics` reply.

/// Pull the value of a scalar metric line (`name value`) out of a Prometheus
/// text exposition.  Histogram series expose `name_sum` / `name_count`.
pub fn parse_metric(exposition: &str, name: &str) -> Option<u64> {
    exposition.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?;
        let rest = rest.strip_prefix(' ')?;
        rest.trim().parse::<u64>().ok()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_metric_scans_exposition_lines() {
        let text = "# HELP x y\n# TYPE x counter\ndcq_server_push_total 42\nother 7\n";
        assert_eq!(parse_metric(text, "dcq_server_push_total"), Some(42));
        assert_eq!(parse_metric(text, "other"), Some(7));
        assert_eq!(parse_metric(text, "missing"), None);
        // Prefix collisions must not match.
        assert_eq!(parse_metric(text, "dcq_server_push"), None);
    }
}
