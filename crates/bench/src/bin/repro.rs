//! Regenerates the SPEED paper's tables and figures.
//!
//! ```text
//! cargo run --release -p speed-bench --bin repro -- all
//! cargo run --release -p speed-bench --bin repro -- fig5a [trials]
//! cargo run --release -p speed-bench --bin repro -- table1
//! cargo run --release -p speed-bench --bin repro -- fig6
//! cargo run --release -p speed-bench --bin repro -- ablation-rce
//! cargo run --release -p speed-bench --bin repro -- shard [--smoke]
//! ```

use speed_bench::apps::App;
use speed_bench::{ablations, fig5, fig6, persist, shard, switchless, table1};

fn usage() -> ! {
    eprintln!(
        "usage: repro <experiment> [trials]\n\
                repro <bench> [--smoke]\n\
         experiments:\n\
           fig5a | fig5b | fig5c | fig5d   relative runtime of the 4 apps\n\
           fig5                            all four sub-figures\n\
           table1                          crypto operation latency\n\
           fig6                            store throughput, SGX vs no SGX\n\
           ablation-rce                    RCE vs single-key protection\n\
           ablation-switch                 world-switch cost sensitivity\n\
           ablation-transport              in-process vs TCP store\n\
           ablations                       all three ablations\n\
           all                             everything above\n\
         benches (each writes BENCH_<bench>.json):\n\
           shard                           sharded store vs a single lock\n\
           persist                         durability cost and recovery\n\
           switchless                      switchless calls, connection scaling"
    );
    std::process::exit(2)
}

fn run_fig5(app: App, trials: usize) {
    let rows = fig5::run(app, trials);
    println!("{}", fig5::render(app, &rows));
    println!();
}

fn run_ablations(trials: usize) {
    println!("{}", ablations::render_rce(&ablations::rce_vs_single_key(trials)));
    println!();
    println!("{}", ablations::render_switch(&ablations::switch_cost_sensitivity()));
    println!();
    println!("{}", ablations::render_transport(&ablations::transport_comparison()));
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let experiment = args.first().map(String::as_str).unwrap_or("all");
    let trials = || -> usize {
        args.get(1).map(|s| s.parse().unwrap_or_else(|_| usage())).unwrap_or(3)
    };
    let smoke = || match args.get(1).map(String::as_str) {
        None => false,
        Some("--smoke") => true,
        Some(_) => usage(),
    };

    match experiment {
        "fig5a" => run_fig5(App::Sift, trials()),
        "fig5b" => run_fig5(App::Deflate, trials()),
        "fig5c" => run_fig5(App::Match, trials()),
        "fig5d" => run_fig5(App::Bow, trials()),
        "fig5" => {
            for app in App::ALL {
                run_fig5(app, trials());
            }
        }
        "table1" => println!("{}", table1::render(&table1::run(trials().max(5)))),
        "fig6" => println!("{}", fig6::render(&fig6::run())),
        "ablation-rce" => {
            println!("{}", ablations::render_rce(&ablations::rce_vs_single_key(trials())))
        }
        "ablation-switch" => println!(
            "{}",
            ablations::render_switch(&ablations::switch_cost_sensitivity())
        ),
        "ablation-transport" => println!(
            "{}",
            ablations::render_transport(&ablations::transport_comparison())
        ),
        "ablations" => run_ablations(trials()),
        "shard" => shard::run(smoke()),
        "persist" => persist::run(smoke()),
        "switchless" => switchless::run(smoke()),
        "all" => {
            for app in App::ALL {
                run_fig5(app, trials());
            }
            println!("{}", table1::render(&table1::run(trials().max(5))));
            println!();
            println!("{}", fig6::render(&fig6::run()));
            println!();
            run_ablations(trials());
        }
        _ => usage(),
    }
}
