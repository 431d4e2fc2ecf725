//! The experiment harness: `baldur <experiment> [flags]` runs one
//! registered experiment, `baldur all [--out DIR]` runs every one into a
//! results directory, and `baldur --list` lists them.

fn main() {
    baldur_bench::main()
}
