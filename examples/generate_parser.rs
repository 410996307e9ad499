//! The generator workflow: turn grammar modules into a standalone Rust
//! parser module, exactly what `modpeg-grammars`' build script does for
//! the shipped grammars (and what `modpeg gen` does on the command line).
//!
//! ```sh
//! cargo run --example generate_parser            # print a summary
//! cargo run --example generate_parser -- out.rs  # write the full source
//! ```

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let set = modpeg::syntax::parse_module_set([modpeg::grammars::sources::JSON])?;
    let grammar = set.elaborate("json", Some("Document"))?;
    println!(
        "elaborated `json`: {} productions, root `{}`",
        grammar.len(),
        grammar.production(grammar.root()).name
    );

    let source = modpeg::codegen::generate(&grammar, "JSON parser (example output)")?;
    let lines = source.lines().count();
    let fns = source.matches("fn ").count();
    println!("generated parser : {} lines, {} functions", lines, fns);

    match std::env::args().nth(1) {
        Some(path) => {
            std::fs::write(&path, &source)?;
            println!("wrote {path}");
            println!(
                "\nTo use it: include the file in a crate that depends on\n\
                 modpeg-runtime, modpeg-telemetry and modpeg-interp and call\n\
                 `parse(text)` — see modpeg-grammars' build.rs for the\n\
                 build-time version of this workflow."
            );
        }
        None => {
            println!("\n--- first 40 lines ---");
            for line in source.lines().take(40) {
                println!("{line}");
            }
            println!("... (pass a filename to write the whole parser)");
        }
    }
    Ok(())
}
