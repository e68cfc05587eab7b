//! Trace inspection utility: generates any of the §5 workloads and prints
//! its "address reuse characteristics" (the paper's trace-analysis
//! paragraph), optionally dumping the flows as CSV.
//!
//! ```sh
//! cargo run --release -p sv2p-bench --bin tracegen -- hadoop [--full] [--dump]
//! ```

use sv2p_bench::cli;
use sv2p_traces::datasets::stats;
use sv2p_traces::{alibaba, hadoop, microbursts, video, websearch, TraceFlow};

fn describe(name: &str, flows: &[TraceFlow], dump: bool) {
    let s = stats(flows);
    println!("== {name} ==");
    println!("  flows:                {}", s.flows);
    println!(
        "  total payload:        {:.1} MB",
        s.total_bytes as f64 / 1e6
    );
    println!(
        "  duration:             {:.3} ms",
        s.duration_ns as f64 / 1e6
    );
    println!(
        "  offered load:         {:.1} Gb/s",
        s.total_bytes as f64 * 8.0 / (s.duration_ns.max(1) as f64 / 1e9) / 1e9
    );
    println!("  distinct destinations: {}", s.distinct_dsts);
    println!("  dsts in >=2 flows:     {}", s.dsts_with_2plus);
    println!("  dsts in >=10 flows:    {}", s.dsts_with_10plus);
    println!(
        "  mean flow size:        {:.1} kB",
        s.total_bytes as f64 / s.flows.max(1) as f64 / 1e3
    );
    if dump {
        println!("start_ns,src_vm,dst_vm,bytes");
        for f in flows {
            println!("{},{},{},{}", f.start_ns, f.src_vm, f.dst_vm, f.bytes());
        }
    }
    println!();
}

fn main() {
    let args = cli::init_with("tracegen", &["--dump"]);
    let scale = args.scale;
    let dump = args.has("--dump");
    let which = args.dataset_or("all").to_string();

    let run = |name: &str, dump: bool| match name {
        "hadoop" => describe("Hadoop", &hadoop(&scale.hadoop()), dump),
        "websearch" => describe("WebSearch", &websearch(&scale.websearch()), dump),
        "alibaba" => {
            let (_, cfg, _) = scale.alibaba();
            describe("Alibaba", &alibaba(&cfg), dump)
        }
        "microbursts" => describe("Microbursts", &microbursts(&scale.microbursts()), dump),
        "video" => describe("Video", &video(scale.video_ns()), dump),
        other => {
            eprintln!("unknown dataset {other}");
            std::process::exit(2);
        }
    };
    let start = std::time::Instant::now();
    if which == "all" {
        for d in ["hadoop", "websearch", "alibaba", "microbursts", "video"] {
            run(d, dump);
        }
    } else {
        run(&which, dump);
    }
    cli::record_manifest(cli::analytic_manifest(
        &which,
        start.elapsed().as_secs_f64(),
    ));
    cli::finish();
}
