//! What every result records besides its metrics: the machine that
//! produced it and the computed size of the problem it ran.

use std::path::Path;

use dg_edge_meg::LANES;

/// Cores, source revision and cache sizes of the machine running the
/// benchmark.
#[derive(Debug)]
pub struct Machine {
    pub cores: usize,
    pub commit: String,
    pub l2_bytes: Option<u64>,
    pub l3_bytes: Option<u64>,
}

impl Machine {
    pub fn detect() -> Machine {
        Machine {
            cores: cores(),
            commit: commit(Path::new(".git")).unwrap_or_else(|| "unknown".to_string()),
            l2_bytes: cache_bytes(2),
            l3_bytes: cache_bytes(3),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"commit\": \"{}\", \"l2_bytes\": {}, \"l3_bytes\": {}}}",
            self.cores,
            self.commit,
            opt(self.l2_bytes),
            opt(self.l3_bytes)
        )
    }
}

pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

fn opt(x: Option<u64>) -> String {
    x.map_or_else(|| "null".to_string(), |v| v.to_string())
}

/// The checked-out revision, read from the working directory's `.git`
/// without running git (a source export has no `.git` and reports
/// `None`).
fn commit(git: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(git.join(name)) {
        return Some(id.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed
        .lines()
        .find_map(|line| line.strip_suffix(name)?.strip_suffix(' '))
        .map(str::to_string)
}

/// Size of the unified or data cache at `level` as the kernel reports
/// it for cpu0.
fn cache_bytes(level: u32) -> Option<u64> {
    let dir = Path::new("/sys/devices/system/cpu/cpu0/cache");
    for entry in std::fs::read_dir(dir).ok()?.flatten() {
        let read = |f: &str| std::fs::read_to_string(entry.path().join(f)).ok();
        let Some(l) = read("level") else { continue };
        if l.trim().parse::<u32>().ok() != Some(level) {
            continue;
        }
        if read("type").is_some_and(|t| t.trim() == "Instruction") {
            continue;
        }
        let size = read("size")?;
        let size = size.trim();
        let (digits, scale) = match size.strip_suffix('K') {
            Some(d) => (d, 1 << 10),
            None => match size.strip_suffix('M') {
                Some(d) => (d, 1 << 20),
                None => (size, 1),
            },
        };
        return digits.parse::<u64>().ok().map(|v| v * scale);
    }
    None
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// The computed (not measured) working set of one flooding trial on
/// the lane-sharded sparse edge-MEG at stationarity.
#[derive(Debug)]
pub struct WorkingSet {
    pub nodes: usize,
    pub mean_edges: f64,
    /// `DynAdjacency`: one `Vec<u32>` header per node plus both
    /// endpoints of every alive edge.
    pub adjacency_bytes: f64,
    /// Model: every lane's pair map (16-byte slots, at least two per
    /// expected entry, rounded up to a power of two) plus the alive
    /// lists (8 bytes per alive edge).
    pub model_bytes: f64,
}

impl WorkingSet {
    /// Mirrors `ShardedSparseEdgeMeg::stationary`'s lane split and map
    /// sizing for `n` nodes, birth rate `p` and death rate `q`.
    pub fn sharded_sparse(n: usize, p: f64, q: f64) -> WorkingSet {
        let alpha = p / (p + q);
        let tri = |v: u64| v * v.saturating_sub(1) / 2;
        let span = n.div_ceil(LANES) as u64;
        let mut map_bytes = 0.0;
        for l in 0..LANES as u64 {
            let lo = (l * span).min(n as u64);
            let hi = ((l + 1) * span).min(n as u64);
            let expected = (alpha * (tri(hi.max(1)) - tri(lo.max(1))) as f64).ceil() as usize;
            let slots = (expected * 2).next_power_of_two().max(16);
            map_bytes += 16.0 * slots as f64;
        }
        let mean_edges = alpha * tri(n as u64) as f64;
        WorkingSet {
            nodes: n,
            mean_edges,
            adjacency_bytes: 24.0 * n as f64 + 8.0 * mean_edges,
            model_bytes: map_bytes + 8.0 * mean_edges,
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"kind\": \"computed\", \"nodes\": {}, \"mean_edges\": {:.0}, \"adjacency_bytes\": {:.0}, \"model_bytes\": {:.0}}}",
            self.nodes, self.mean_edges, self.adjacency_bytes, self.model_bytes
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn working_set_of_a_million_nodes() {
        let n = 1 << 20;
        let ws = WorkingSet::sharded_sparse(n, 1.5 / n as f64, 0.5);
        // alpha * n(n-1)/2 with alpha = p/(p+q) ~ 3/n: about 1.5 n edges.
        assert!((ws.mean_edges / n as f64 - 1.5).abs() < 0.01, "{ws:?}");
        assert!(ws.model_bytes > ws.adjacency_bytes);
    }

    #[test]
    fn commit_reads_loose_and_packed_refs() {
        let dir = std::env::temp_dir().join(format!("e2ebench-git-{}", std::process::id()));
        std::fs::create_dir_all(dir.join("refs/heads")).unwrap();
        std::fs::write(dir.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        std::fs::write(dir.join("packed-refs"), "abc123 refs/heads/main\n").unwrap();
        assert_eq!(commit(&dir).as_deref(), Some("abc123"));
        std::fs::write(dir.join("refs/heads/main"), "def456\n").unwrap();
        assert_eq!(commit(&dir).as_deref(), Some("def456"));
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(commit(&dir), None);
    }
}
