//! The eight SoC applications of the paper's evaluation (Section VI):
//! H264, MMS_DEC, MMS_ENC, MMS_MP3, MWD, VOPD, WLAN and PIP.
//!
//! Provenance:
//!
//! * **VOPD** (Video Object Plane Decoder, 12 tasks) and **MWD**
//!   (Multi-Window Display, 12 tasks) follow the standard graphs of the
//!   NoC-synthesis literature (Bertozzi/Murali, the NMAP paper the SMART
//!   authors cite as \[24\]); bandwidths in MB/s.
//! * **PIP** (Picture-in-Picture, 8 tasks) follows the widely used
//!   8-node version.
//! * **MMS_DEC / MMS_ENC / MMS_MP3** are the decoder / encoder / MP3
//!   partitions of Hu & Marculescu's MultiMedia System. Original
//!   bandwidths are in KB/s; per the paper's footnote 9 they are
//!   **scaled ×100** here so the 2 GHz NoC sees reasonable traffic.
//! * **H264** (M. Kinsy's task graph, unavailable) and **WLAN** are
//!   reconstructions matching the paper's qualitative description:
//!   H264's frame memory is the *sink* of most flows, WLAN is a mostly
//!   linear baseband pipeline. The paper's observations (H264 suffers
//!   sink serialization; WLAN ≈ Dedicated) depend on exactly these
//!   shapes.

use crate::graph::TaskGraph;

/// Footnote 9: MMS bandwidths are scaled up 100× (and the raw numbers
/// are KB/s, so ×100 KB/s = ×0.1 MB/s).
const MMS_SCALE: f64 = 100.0 * 1e-3;

/// Build a graph from a task list and `(src, dst, bandwidth)` edges.
fn build(name: &str, tasks: &[&str], edges: &[(&str, &str, f64)]) -> TaskGraph {
    let mut g = TaskGraph::new(name);
    for t in tasks {
        g.add_task(t);
    }
    for (s, d, bw) in edges {
        let src = g.task_by_name(s).unwrap_or_else(|| panic!("{name}: {s}?"));
        let dst = g.task_by_name(d).unwrap_or_else(|| panic!("{name}: {d}?"));
        g.add_flow(src, dst, *bw);
    }
    g.validate();
    g
}

/// Video Object Plane Decoder — the classic 12-task pipeline.
#[must_use]
pub fn vopd() -> TaskGraph {
    build(
        "VOPD",
        &[
            "vld",
            "run_le_dec",
            "inv_scan",
            "ac_dc_pred",
            "stripe_mem",
            "iquan",
            "idct",
            "up_samp",
            "vop_rec",
            "pad",
            "vop_mem",
            "arm",
        ],
        &[
            ("vld", "run_le_dec", 70.0),
            ("run_le_dec", "inv_scan", 362.0),
            ("inv_scan", "ac_dc_pred", 362.0),
            ("ac_dc_pred", "stripe_mem", 49.0),
            ("stripe_mem", "iquan", 27.0),
            ("ac_dc_pred", "iquan", 357.0),
            ("iquan", "idct", 353.0),
            ("idct", "up_samp", 300.0),
            ("up_samp", "vop_rec", 313.0),
            ("vop_rec", "pad", 500.0),
            ("pad", "vop_mem", 313.0),
            ("vop_mem", "pad", 94.0),
            ("arm", "pad", 16.0),
            ("vop_mem", "arm", 16.0),
        ],
    )
}

/// Multi-Window Display — 12 tasks, two filter pipelines joining at the
/// blender.
#[must_use]
pub fn mwd() -> TaskGraph {
    build(
        "MWD",
        &[
            "in", "nr", "mem1", "hs", "vs", "mem2", "hvs", "jug1", "jug2", "mem3", "se", "blend",
        ],
        &[
            ("in", "nr", 64.0),
            ("in", "hs", 128.0),
            ("nr", "mem1", 64.0),
            ("mem1", "hvs", 64.0),
            ("hs", "vs", 96.0),
            ("vs", "mem2", 96.0),
            ("mem2", "hvs", 96.0),
            ("hvs", "jug1", 64.0),
            ("jug1", "mem3", 64.0),
            ("mem3", "jug2", 64.0),
            ("jug2", "se", 32.0),
            ("se", "blend", 32.0),
            ("mem1", "blend", 32.0),
        ],
    )
}

/// Picture-in-Picture — the 8-task version.
#[must_use]
pub fn pip() -> TaskGraph {
    build(
        "PIP",
        &[
            "inp_mem", "hs", "vs", "jug1", "mem", "jug2", "op_disp", "crop",
        ],
        &[
            ("inp_mem", "hs", 128.0),
            ("hs", "vs", 64.0),
            ("vs", "jug1", 64.0),
            ("jug1", "mem", 64.0),
            ("mem", "jug2", 64.0),
            ("jug2", "op_disp", 64.0),
            ("inp_mem", "crop", 64.0),
            ("crop", "op_disp", 64.0),
        ],
    )
}

/// MMS video **decoder** partition (H.263 decode + stream demux),
/// bandwidths ×100 from KB/s (footnote 9).
#[must_use]
pub fn mms_dec() -> TaskGraph {
    let e = |bw: f64| bw * MMS_SCALE;
    build(
        "MMS_DEC",
        &[
            "demux",
            "vld",
            "iq",
            "idct",
            "mc",
            "frame_mem",
            "upsamp",
            "display",
            "sync_ctl",
        ],
        &[
            ("demux", "vld", e(380.0)),
            ("vld", "iq", e(362.0)),
            ("iq", "idct", e(362.0)),
            ("idct", "mc", e(357.0)),
            ("frame_mem", "mc", e(640.0)),
            ("mc", "frame_mem", e(640.0)),
            ("frame_mem", "upsamp", e(510.0)),
            ("upsamp", "display", e(500.0)),
            ("demux", "sync_ctl", e(40.0)),
            ("sync_ctl", "display", e(32.0)),
        ],
    )
}

/// MMS video **encoder** partition (H.263 encode), bandwidths ×100 from
/// KB/s (footnote 9).
#[must_use]
pub fn mms_enc() -> TaskGraph {
    let e = |bw: f64| bw * MMS_SCALE;
    build(
        "MMS_ENC",
        &[
            "cam_in", "pre_proc", "me", "mc_enc", "dct", "quant", "vlc", "iq_enc", "idct_enc",
            "ref_mem", "rate_ctl",
        ],
        &[
            ("cam_in", "pre_proc", e(910.0)),
            ("pre_proc", "me", e(600.0)),
            ("ref_mem", "me", e(640.0)),
            ("me", "mc_enc", e(500.0)),
            ("mc_enc", "dct", e(410.0)),
            ("dct", "quant", e(410.0)),
            ("quant", "vlc", e(250.0)),
            ("quant", "iq_enc", e(190.0)),
            ("iq_enc", "idct_enc", e(190.0)),
            ("idct_enc", "ref_mem", e(190.0)),
            ("vlc", "rate_ctl", e(30.0)),
            ("rate_ctl", "quant", e(0.5)),
        ],
    )
}

/// MMS **MP3 audio** partition. One core — the PCM sample memory — is
/// the *source* of most flows (the paper: "another acts as the source
/// for most flows, thus resulting in heavy contention and
/// multiplexing"). Bandwidths ×100 from KB/s (footnote 9).
#[must_use]
pub fn mms_mp3() -> TaskGraph {
    let e = |bw: f64| bw * MMS_SCALE;
    build(
        "MMS_MP3",
        &[
            "adc",
            "pcm_mem",
            "subband",
            "mdct",
            "psycho",
            "fft",
            "quant_mp3",
            "huffman",
            "bitstream",
        ],
        &[
            ("adc", "pcm_mem", e(760.0)),
            // pcm_mem fans out to four consumers: the source hub.
            ("pcm_mem", "subband", e(910.0)),
            ("pcm_mem", "psycho", e(640.0)),
            ("pcm_mem", "fft", e(640.0)),
            ("pcm_mem", "mdct", e(380.0)),
            ("subband", "mdct", e(380.0)),
            ("fft", "psycho", e(260.0)),
            ("psycho", "quant_mp3", e(190.0)),
            ("mdct", "quant_mp3", e(380.0)),
            ("quant_mp3", "huffman", e(190.0)),
            ("huffman", "bitstream", e(130.0)),
        ],
    )
}

/// H.264 decoder (after M. Kinsy's task graph). The reconstructed
/// shape matches the paper's observation that "one core acts as a sink
/// for most flows": the frame memory collects residuals, predictions
/// and deblocked macroblocks from five producers.
#[must_use]
pub fn h264() -> TaskGraph {
    build(
        "H264",
        &[
            "nal_parse",
            "entropy_dec",
            "iq_it",
            "intra_pred",
            "mc_pred",
            "recon",
            "deblock",
            "frame_mem",
            "display",
            "audio_dec",
        ],
        &[
            ("nal_parse", "entropy_dec", 96.0),
            ("entropy_dec", "iq_it", 160.0),
            ("iq_it", "intra_pred", 80.0),
            ("iq_it", "mc_pred", 128.0),
            ("frame_mem", "mc_pred", 320.0),
            ("intra_pred", "recon", 96.0),
            ("mc_pred", "recon", 160.0),
            ("recon", "deblock", 240.0),
            // frame_mem as the sink hub: five producers.
            ("deblock", "frame_mem", 240.0),
            ("recon", "frame_mem", 96.0),
            ("intra_pred", "frame_mem", 48.0),
            ("entropy_dec", "frame_mem", 32.0),
            ("audio_dec", "frame_mem", 24.0),
            ("nal_parse", "audio_dec", 48.0),
            ("frame_mem", "display", 220.0),
        ],
    )
}

/// 802.11 WLAN baseband — a mostly linear RX pipeline with a small MAC
/// loop; the shape the paper finds nearly indistinguishable from a
/// dedicated topology under SMART.
#[must_use]
pub fn wlan() -> TaskGraph {
    build(
        "WLAN",
        &[
            "rf_agc",
            "sync",
            "fft",
            "chan_est",
            "equalize",
            "demap",
            "deinterleave",
            "viterbi",
            "descramble",
            "mac_rx",
            "pkt_mem",
            "mac_tx",
        ],
        &[
            ("rf_agc", "sync", 64.0),
            ("sync", "fft", 128.0),
            ("fft", "chan_est", 96.0),
            ("chan_est", "equalize", 96.0),
            ("equalize", "demap", 96.0),
            ("demap", "deinterleave", 64.0),
            ("deinterleave", "viterbi", 128.0),
            ("viterbi", "descramble", 32.0),
            ("descramble", "mac_rx", 32.0),
            ("mac_rx", "pkt_mem", 64.0),
            ("pkt_mem", "mac_tx", 32.0),
        ],
    )
}

/// Builds one application's task graph.
type Builder = fn() -> TaskGraph;

/// Each application's name and builder, in the paper's Fig 10 order.
const APPS: [(&str, Builder); 8] = [
    ("H264", h264),
    ("MMS_DEC", mms_dec),
    ("MMS_ENC", mms_enc),
    ("MMS_MP3", mms_mp3),
    ("MWD", mwd),
    ("VOPD", vopd),
    ("WLAN", wlan),
    ("PIP", pip),
];

/// All eight applications, in the paper's Fig 10 order.
#[must_use]
pub fn all() -> Vec<TaskGraph> {
    APPS.iter().map(|(_, build)| build()).collect()
}

/// Look an application up by (case-insensitive) name, building only
/// that one.
#[must_use]
pub fn by_name(name: &str) -> Option<TaskGraph> {
    APPS.iter()
        .find(|(app, _)| app.eq_ignore_ascii_case(name))
        .map(|(_, build)| build())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn suite_has_eight_valid_apps() {
        let apps = all();
        assert_eq!(apps.len(), 8);
        for g in &apps {
            g.validate();
            assert!(
                g.num_tasks() <= 16,
                "{} must fit the 4x4 mesh ({} tasks)",
                g.name(),
                g.num_tasks()
            );
            assert!(g.flows().len() >= g.num_tasks() - 1);
        }
        let names: Vec<&str> = apps.iter().map(TaskGraph::name).collect();
        assert_eq!(
            names,
            ["H264", "MMS_DEC", "MMS_ENC", "MMS_MP3", "MWD", "VOPD", "WLAN", "PIP"]
        );
    }

    #[test]
    fn by_name_is_case_insensitive() {
        assert_eq!(by_name("vopd").expect("found").name(), "VOPD");
        assert_eq!(by_name("MMS_mp3").expect("found").name(), "MMS_MP3");
        assert!(by_name("doom").is_none());
        for g in all() {
            assert_eq!(by_name(g.name()), Some(g), "the table names each graph");
        }
    }

    #[test]
    fn vopd_matches_published_totals() {
        let g = vopd();
        assert_eq!(g.num_tasks(), 12);
        assert_eq!(g.flows().len(), 14);
        // Our VOPD edge table sums to 3132 MB/s of traffic.
        assert!(
            (g.total_bandwidth() - 3132.0).abs() < 1.0,
            "{}",
            g.total_bandwidth()
        );
    }

    #[test]
    fn h264_is_sink_heavy() {
        let g = h264();
        let (hub, fan_in) = g.max_fan_in().expect("nonempty");
        assert_eq!(g.task_name(hub), "frame_mem");
        assert!(
            fan_in >= 5,
            "frame_mem must be the sink of most flows, fan-in {fan_in}"
        );
    }

    #[test]
    fn mms_mp3_is_source_heavy() {
        let g = mms_mp3();
        let (hub, fan_out) = g.max_fan_out().expect("nonempty");
        assert_eq!(g.task_name(hub), "pcm_mem");
        assert!(fan_out >= 4, "pcm_mem must source most flows");
    }

    #[test]
    fn wlan_is_mostly_linear() {
        let g = wlan();
        // A linear pipeline: max fan-in and fan-out are 1.
        let (_, fi) = g.max_fan_in().expect("nonempty");
        let (_, fo) = g.max_fan_out().expect("nonempty");
        assert_eq!(fi, 1);
        assert_eq!(fo, 1);
    }

    #[test]
    fn mms_bandwidths_carry_the_100x_scaling() {
        // 910 KB/s × 100 = 91 MB/s: the largest MMS flow.
        let g = mms_enc();
        let max = g
            .flows()
            .iter()
            .map(|f| f.bandwidth_mbs)
            .fold(0.0f64, f64::max);
        assert!((max - 91.0).abs() < 1e-9, "got {max}");
    }

    #[test]
    fn bandwidths_give_low_but_nonzero_injection_rates() {
        // At 2 GHz / 32-byte packets, every flow must be well below
        // saturation (open-loop Bernoulli assumption) but nonzero.
        for g in all() {
            for f in g.flows() {
                let rate = f.bandwidth_mbs * 1e6 / 2e9 / 32.0;
                assert!(
                    rate > 0.0 && rate < 0.25,
                    "{}: flow rate {rate} packets/cycle out of range",
                    g.name()
                );
            }
        }
    }
}
