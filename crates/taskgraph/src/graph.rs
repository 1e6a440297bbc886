//! Task graphs: tasks, communication flows and their bandwidths.
//!
//! A task graph is the application-level input to the SMART tool flow:
//! tasks get mapped to physical cores (NMAP, `smart-mapping`), flows to
//! static routes, and routes to presets (`smart-core`).

use std::fmt;

/// A task (IP core workload) within an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub u16);

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// A directed communication flow between two tasks.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Flow {
    /// Producing task.
    pub src: TaskId,
    /// Consuming task.
    pub dst: TaskId,
    /// Required bandwidth in MB/s.
    pub bandwidth_mbs: f64,
}

/// An application's task graph.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskGraph {
    name: String,
    tasks: Vec<String>,
    flows: Vec<Flow>,
}

impl TaskGraph {
    /// Empty graph named `name`.
    #[must_use]
    pub fn new(name: &str) -> Self {
        TaskGraph {
            name: name.to_owned(),
            tasks: Vec::new(),
            flows: Vec::new(),
        }
    }

    /// Application name (e.g. `"VOPD"`).
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Add a task; returns its id.
    pub fn add_task(&mut self, name: &str) -> TaskId {
        self.tasks.push(name.to_owned());
        TaskId((self.tasks.len() - 1) as u16)
    }

    /// Add a flow of `bandwidth_mbs` MB/s from `src` to `dst`.
    ///
    /// # Panics
    ///
    /// Panics on self-loops, unknown tasks, non-positive bandwidth, or a
    /// duplicate (src, dst) edge.
    pub fn add_flow(&mut self, src: TaskId, dst: TaskId, bandwidth_mbs: f64) {
        assert_ne!(src, dst, "{}: self-loop at {src}", self.name);
        assert!(
            (src.0 as usize) < self.tasks.len() && (dst.0 as usize) < self.tasks.len(),
            "{}: flow references unknown task",
            self.name
        );
        assert!(
            bandwidth_mbs > 0.0,
            "{}: bandwidth must be positive",
            self.name
        );
        assert!(
            !self.flows.iter().any(|f| f.src == src && f.dst == dst),
            "{}: duplicate flow {src}->{dst}",
            self.name
        );
        self.flows.push(Flow {
            src,
            dst,
            bandwidth_mbs,
        });
    }

    /// Number of tasks.
    #[must_use]
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// All task ids.
    pub fn task_ids(&self) -> impl Iterator<Item = TaskId> + '_ {
        (0..self.tasks.len() as u16).map(TaskId)
    }

    /// Name of a task.
    ///
    /// # Panics
    ///
    /// Panics if the task id is out of range.
    #[must_use]
    pub fn task_name(&self, t: TaskId) -> &str {
        &self.tasks[t.0 as usize]
    }

    /// Task id by name, if present.
    #[must_use]
    pub fn task_by_name(&self, name: &str) -> Option<TaskId> {
        self.tasks
            .iter()
            .position(|t| t == name)
            .map(|i| TaskId(i as u16))
    }

    /// The communication flows.
    #[must_use]
    pub fn flows(&self) -> &[Flow] {
        &self.flows
    }

    /// Total bandwidth demand, MB/s.
    #[must_use]
    pub fn total_bandwidth(&self) -> f64 {
        self.flows.iter().map(|f| f.bandwidth_mbs).sum()
    }

    /// Communication demand of a task: the bandwidth it sends plus
    /// receives — NMAP's seeding metric.
    #[must_use]
    pub fn comm_demand(&self, t: TaskId) -> f64 {
        self.flows
            .iter()
            .filter(|f| f.src == t || f.dst == t)
            .map(|f| f.bandwidth_mbs)
            .sum()
    }

    /// Number of flows terminating at `t` (fan-in).
    #[must_use]
    pub fn fan_in(&self, t: TaskId) -> usize {
        self.flows.iter().filter(|f| f.dst == t).count()
    }

    /// Number of flows leaving `t` (fan-out).
    #[must_use]
    pub fn fan_out(&self, t: TaskId) -> usize {
        self.flows.iter().filter(|f| f.src == t).count()
    }

    /// The task with the largest fan-in and that fan-in (the "sink hub"
    /// the paper describes for H264).
    #[must_use]
    pub fn max_fan_in(&self) -> Option<(TaskId, usize)> {
        self.task_ids()
            .map(|t| (t, self.fan_in(t)))
            .max_by_key(|(_, n)| *n)
    }

    /// The task with the largest fan-out and that fan-out (the "source
    /// hub" of MMS_MP3).
    #[must_use]
    pub fn max_fan_out(&self) -> Option<(TaskId, usize)> {
        self.task_ids()
            .map(|t| (t, self.fan_out(t)))
            .max_by_key(|(_, n)| *n)
    }

    /// Validate structural sanity: every task participates in at least
    /// one flow and the graph is weakly connected.
    ///
    /// # Panics
    ///
    /// Panics with a description of the violation.
    pub fn validate(&self) {
        assert!(!self.flows.is_empty(), "{}: no flows", self.name);
        for t in self.task_ids() {
            assert!(
                self.comm_demand(t) > 0.0,
                "{}: task {} ({}) is isolated",
                self.name,
                t,
                self.task_name(t)
            );
        }
        // Weak connectivity by union-find.
        let mut parent: Vec<usize> = (0..self.tasks.len()).collect();
        fn find(p: &mut Vec<usize>, i: usize) -> usize {
            if p[i] != i {
                let r = find(p, p[i]);
                p[i] = r;
            }
            p[i]
        }
        for f in &self.flows {
            let (a, b) = (
                find(&mut parent, f.src.0 as usize),
                find(&mut parent, f.dst.0 as usize),
            );
            parent[a] = b;
        }
        let root = find(&mut parent, 0);
        for i in 0..self.tasks.len() {
            assert_eq!(
                find(&mut parent, i),
                root,
                "{}: task graph is disconnected at {}",
                self.name,
                self.tasks[i]
            );
        }
    }

    /// Graphviz DOT rendering (for documentation and debugging).
    #[must_use]
    pub fn to_dot(&self) -> String {
        let mut s = format!("digraph \"{}\" {{\n  rankdir=LR;\n", self.name);
        for (i, t) in self.tasks.iter().enumerate() {
            s.push_str(&format!("  t{i} [label=\"{t}\"];\n"));
        }
        for f in &self.flows {
            s.push_str(&format!(
                "  t{} -> t{} [label=\"{:.0}\"];\n",
                f.src.0, f.dst.0, f.bandwidth_mbs
            ));
        }
        s.push_str("}\n");
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> TaskGraph {
        let mut g = TaskGraph::new("sample");
        let a = g.add_task("a");
        let b = g.add_task("b");
        let c = g.add_task("c");
        g.add_flow(a, b, 100.0);
        g.add_flow(b, c, 50.0);
        g.add_flow(a, c, 25.0);
        g
    }

    #[test]
    fn bandwidth_accounting() {
        let g = sample();
        assert!((g.total_bandwidth() - 175.0).abs() < 1e-12);
        let a = g.task_by_name("a").expect("a exists");
        assert!((g.comm_demand(a) - 125.0).abs() < 1e-12);
        let c = g.task_by_name("c").expect("c exists");
        assert_eq!(g.fan_in(c), 2);
        assert_eq!(g.fan_out(c), 0);
        assert_eq!(g.max_fan_in(), Some((c, 2)));
        let a = g.task_by_name("a").expect("a");
        assert_eq!(g.max_fan_out(), Some((a, 2)));
    }

    #[test]
    fn validation_passes_for_connected_graph() {
        sample().validate();
    }

    #[test]
    #[should_panic(expected = "isolated")]
    fn isolated_task_rejected() {
        let mut g = sample();
        g.add_task("lonely");
        g.validate();
    }

    #[test]
    #[should_panic(expected = "self-loop")]
    fn self_loop_rejected() {
        let mut g = TaskGraph::new("x");
        let a = g.add_task("a");
        g.add_flow(a, a, 1.0);
    }

    #[test]
    #[should_panic(expected = "duplicate flow")]
    fn duplicate_edge_rejected() {
        let mut g = sample();
        let a = g.task_by_name("a").expect("a");
        let b = g.task_by_name("b").expect("b");
        g.add_flow(a, b, 1.0);
    }

    #[test]
    fn dot_contains_all_edges() {
        let dot = sample().to_dot();
        assert!(dot.contains("t0 -> t1"));
        assert!(dot.contains("digraph"));
        assert_eq!(dot.matches("->").count(), 3);
    }
}
