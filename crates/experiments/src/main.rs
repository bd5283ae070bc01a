//! Experiment harness: regenerates every table and figure of the paper's
//! evaluation section (see DESIGN.md for the experiment index).
//!
//! ```text
//! experiments <table1|fig7|fig8|fig9|fig10|fig11|all> [options]
//!
//! options:
//!   --paper           paper-scale configuration (60k points, 10 reps)
//!   --reps N          repetitions per configuration
//!   --size N          initial database size
//!   --bubbles N       number of data bubbles
//!   --batches N       update batches per run
//!   --update F        update fraction per batch (e.g. 0.05)
//!   --seed N          base RNG seed
//!   --out DIR         CSV output directory (default: results)
//! ```

mod ablation;
mod common;
mod extra;
mod fig7;
mod fig8;
mod sweeps;
mod table1;

use common::RunConfig;

fn usage() -> ! {
    eprintln!(
        "usage: experiments <table1|fig7|fig8|fig9|fig10|fig11|sweeps|scaling|ablation|all> \
         [--paper] [--reps N] [--size N] [--bubbles N] [--batches N] \
         [--update F] [--seed N] [--out DIR]"
    );
    std::process::exit(2);
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() {
        usage();
    }
    let command = args[0].clone();

    let mut cfg = if args.iter().any(|a| a == "--paper") {
        RunConfig::paper()
    } else {
        RunConfig::quick()
    };

    let mut i = 1;
    while i < args.len() {
        let take_value = |i: &mut usize| -> String {
            *i += 1;
            args.get(*i).cloned().unwrap_or_else(|| usage())
        };
        match args[i].as_str() {
            "--paper" => {}
            "--reps" => cfg.reps = take_value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--size" => cfg.size = take_value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--bubbles" => {
                cfg.num_bubbles = take_value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--batches" => cfg.batches = take_value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--update" => {
                cfg.update_fraction = take_value(&mut i).parse().unwrap_or_else(|_| usage());
            }
            "--seed" => cfg.seed = take_value(&mut i).parse().unwrap_or_else(|_| usage()),
            "--out" => cfg.out_dir = take_value(&mut i).into(),
            other => {
                eprintln!("unknown option: {other}");
                usage();
            }
        }
        i += 1;
    }

    match command.as_str() {
        "table1" => table1::run(&cfg),
        "fig7" => fig7::run(&cfg),
        "fig8" => fig8::run(&cfg),
        "fig9" => sweeps::run(&cfg, &[9]),
        "fig10" => sweeps::run(&cfg, &[10]),
        "fig11" => sweeps::run(&cfg, &[11]),
        "sweeps" => sweeps::run(&cfg, &[9, 10, 11]),
        "scaling" => extra::run_scaling(&cfg),
        "ablation" => ablation::run(&cfg),
        "all" => {
            table1::run(&cfg);
            println!();
            fig7::run(&cfg);
            println!();
            fig8::run(&cfg);
            println!();
            sweeps::run(&cfg, &[9, 10, 11]);
            println!();
            extra::run_scaling(&cfg);
            println!();
            ablation::run(&cfg);
        }
        _ => usage(),
    }
}
