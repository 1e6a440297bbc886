//! Self-checking Verilog testbench generation.
//!
//! Bridges the architectural and RTL layers: given a router's compiled
//! preset (from `smart_core::compile`), emit a testbench that programs
//! the configuration register with the *actual* encoded double word,
//! drives a flit at each bypassed input, and checks it appears at the
//! statically selected output in the same cycle — the single-cycle
//! bypass contract, checked in RTL simulation.

use crate::GenParams;
use smart_core::preset::{InputMux, RouterPreset, XbarSelect};
use smart_sim::Direction;
use std::fmt::Write as _;

/// A generated testbench for one router preset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Testbench {
    /// Module name (`smart_router_tb`).
    pub name: String,
    /// Verilog source.
    pub source: String,
    /// Number of bypass checks emitted.
    pub checks: usize,
}

/// Generate the testbench for `preset`.
#[must_use]
pub fn router_tb(p: &GenParams, preset: &RouterPreset) -> Testbench {
    let w = p.flit_bits;
    let cfg_word = preset.encode();
    let mut s = String::new();
    writeln!(s, "`timescale 1ns/1ps").expect("infallible");
    writeln!(s, "module smart_router_tb;").expect("infallible");
    writeln!(s, "  reg clk = 0; always #0.25 clk = ~clk; // 2 GHz").expect("infallible");
    writeln!(s, "  reg rst_n = 0;").expect("infallible");
    writeln!(s, "  reg store_en = 0;").expect("infallible");
    writeln!(s, "  reg [63:0] store_data = 64'h{cfg_word:016x};").expect("infallible");
    writeln!(s, "  reg  [5*{w}-1:0] link_in = 0;").expect("infallible");
    writeln!(s, "  reg  [4:0] link_in_valid = 0;").expect("infallible");
    writeln!(s, "  wire [5*{w}-1:0] link_out;").expect("infallible");
    writeln!(s, "  wire [4:0] link_out_valid;").expect("infallible");
    writeln!(s, "  integer errors = 0;").expect("infallible");
    writeln!(
        s,
        "  smart_router #(.W({w}), .CW({cw}), .VCS({v})) dut (\n\
         \x20   .clk(clk), .rst_n(rst_n), .store_en(store_en),\n\
         \x20   .store_data(store_data),\n\
         \x20   .link_in(link_in), .link_in_valid(link_in_valid),\n\
         \x20   .link_out(link_out), .link_out_valid(link_out_valid),\n\
         \x20   .credit_in({{5*{cw}{{1'b0}}}}), .credit_out()\n\
         \x20 );",
        cw = p.credit_bits,
        v = p.num_vcs
    )
    .expect("infallible");

    // One combinational check per preset bypass connection.
    let mut checks = 0;
    let mut body = String::new();
    for (o, sel) in preset.xbar.iter().enumerate() {
        let XbarSelect::FromInput(input) = sel else {
            continue;
        };
        if preset.input_mux[input.index()] != Some(InputMux::Bypass) {
            continue;
        }
        let i = input.index();
        let pattern = format!("{w}'h{:x}", 0xA5A5_5A5Au64 & ((1u64 << w.min(63)) - 1));
        writeln!(
            body,
            "    // bypass {} -> {}\n\
             \x20   link_in = 0; link_in_valid = 0;\n\
             \x20   link_in[{w}*{hi}-1 -: {w}] = {pattern};\n\
             \x20   link_in_valid[{i}] = 1'b1;\n\
             \x20   #0.1; // combinational settle within the cycle\n\
             \x20   if (link_out[{w}*{oh}-1 -: {w}] !== {pattern}) begin\n\
             \x20     $display(\"FAIL: bypass {} -> {} corrupted\");\n\
             \x20     errors = errors + 1;\n\
             \x20   end\n\
             \x20   if (link_out_valid[{o}] !== 1'b1) begin\n\
             \x20     $display(\"FAIL: bypass {} -> {} valid not forwarded\");\n\
             \x20     errors = errors + 1;\n\
             \x20   end",
            input,
            Direction::from_index(o),
            input,
            Direction::from_index(o),
            input,
            Direction::from_index(o),
            hi = i + 1,
            oh = o + 1,
        )
        .expect("infallible");
        checks += 1;
    }

    writeln!(s, "  initial begin").expect("infallible");
    writeln!(s, "    #1 rst_n = 1;").expect("infallible");
    writeln!(
        s,
        "    @(posedge clk); store_en = 1; @(posedge clk); store_en = 0;"
    )
    .expect("infallible");
    s.push_str(&body);
    writeln!(
        s,
        "    if (errors == 0) $display(\"PASS: {checks} bypass checks\");\n\
         \x20   else $display(\"FAIL: %0d errors\", errors);\n\
         \x20   $finish;\n\
         \x20 end\n\
         endmodule"
    )
    .expect("infallible");

    Testbench {
        name: "smart_router_tb".into(),
        source: s,
        checks,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use smart_core::compile::compile;
    use smart_sim::{FlowId, NodeId, SourceRoute, Topology};

    fn preset_with_bypass() -> RouterPreset {
        // Compile the Fig 7 blue flow and take router 11 (pure bypass
        // W -> S).
        let mesh = Topology::paper_4x4();
        let route = SourceRoute::from_router_path(
            mesh,
            &[
                NodeId(8),
                NodeId(9),
                NodeId(10),
                NodeId(11),
                NodeId(7),
                NodeId(3),
            ],
        );
        let app = compile(mesh, 8, &[(FlowId(0), route)]);
        app.presets.router(NodeId(11)).clone()
    }

    #[test]
    fn tb_encodes_the_actual_config_word() {
        let p = GenParams::paper_4x4();
        let preset = preset_with_bypass();
        let tb = router_tb(&p, &preset);
        let word = format!("64'h{:016x}", preset.encode());
        assert!(tb.source.contains(&word), "config word must be literal");
    }

    #[test]
    fn tb_checks_every_bypass_connection() {
        let p = GenParams::paper_4x4();
        let preset = preset_with_bypass();
        let tb = router_tb(&p, &preset);
        // Router 11 on the blue path: one bypass (W -> S).
        assert_eq!(tb.checks, 1);
        assert!(tb.source.contains("bypass W -> S"));
        assert!(tb.source.contains("PASS"));
        assert!(tb.source.contains("$finish"));
    }

    #[test]
    fn idle_preset_generates_no_checks() {
        let p = GenParams::paper_4x4();
        let tb = router_tb(&p, &RouterPreset::idle());
        assert_eq!(tb.checks, 0);
    }

    #[test]
    fn tb_is_structurally_balanced() {
        let p = GenParams::paper_4x4();
        let tb = router_tb(&p, &preset_with_bypass());
        assert_eq!(
            tb.source.matches("module").count(),
            tb.source.matches("endmodule").count() * 2,
            "tb instantiates one module and declares one"
        );
        assert!(tb.source.contains("smart_router #("));
    }
}
