//! A reader for LLD's link map (`-Wl,-Map=FILE`): where each input
//! section of an image went.
//!
//! The map is a table, `VMA LMA Size Align` and then one of three
//! indented columns: an output section (one space in), an input
//! section as `file:(name)` (nine), or a symbol (seventeen). An
//! archive member is `…/libc.a(member.o)`, a section LLD built itself
//! (merged strings and constants among them) `<internal>`.

/// One input section and where the link put it.
#[derive(Debug, Clone, PartialEq, Eq)]
// ukcheck: allow(unused-pub) -- what the public `input_sections` returns
pub struct Placed {
    /// Its address in the image (before any load bias).
    pub addr: u64,
    /// Its size in bytes.
    pub size: u64,
    /// The output section it went into.
    pub output: String,
    /// The file it came from, as the map gives it.
    pub file: String,
    /// Its name in that file.
    pub section: String,
}

/// Every input section of `map`, in map order (by address within each
/// output section). An output section with no inputs listed is left
/// out.
pub fn input_sections(map: &str) -> Result<Vec<Placed>, String> {
    let mut out = Vec::new();
    let mut output = String::new();
    for (n, line) in map.lines().enumerate().skip(1) {
        let mut rest = line;
        let mut cols = [0u64; 3];
        for (i, c) in cols.iter_mut().enumerate() {
            let t = rest.trim_start();
            let end = t.find(' ').unwrap_or(t.len());
            *c = u64::from_str_radix(&t[..end], 16)
                .map_err(|_| format!("map line {}: column {} is not hex", n + 1, i + 1))?;
            rest = &t[end..];
        }
        // The alignment, in decimal.
        let t = rest.trim_start();
        rest = &t[t.find(' ').unwrap_or(t.len())..];
        let name = rest.trim_start();
        match rest.len() - name.len() {
            1 => output = name.to_string(),
            9 => {
                let Some((file, section)) =
                    name.strip_suffix(')').and_then(|s| s.rsplit_once(":("))
                else {
                    continue; // `. = ALIGN(…)` and other assignments
                };
                out.push(Placed {
                    addr: cols[0],
                    size: cols[2],
                    output: output.clone(),
                    file: file.to_string(),
                    section: section.to_string(),
                });
            }
            _ => {}
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const MAP: &str = "             VMA              LMA     Size Align Out     In      Symbol
             5b0              5b0      278     8 .relr.dyn
             5b0              5b0      278     8         <internal>:(.relr.dyn)
           10000            10000     48cc     1 .rodata.hot
           10000            10000     48cc     1         <internal>:(.rodata.str1.1)
           148cc            148cc      dd4     1         . = ALIGN(0x10000)
           20000            20000      360     8         /usr/lib/x86_64-linux-gnu/libc.a(libc-start.o):(.rodata)
           20000            20000        0     1                 _dl_relocate_static_pie
           20360            20360       20     4         /t/deps/ukperf-1.ukperf.2-cgu.0.rcgu.o:(.rodata._ZN6ukperf4main17h7b911850c51a96e6E)
";

    #[test]
    fn reads_inputs_not_outputs_assignments_or_symbols() {
        let s = input_sections(MAP).unwrap();
        assert_eq!(s.len(), 4, "{s:?}");
        assert_eq!((s[0].addr, s[0].size, s[0].output.as_str()), (0x5b0, 0x278, ".relr.dyn"));
        assert_eq!(s[1].file, "<internal>");
        assert_eq!(s[1].section, ".rodata.str1.1");
        assert_eq!(s[2].file, "/usr/lib/x86_64-linux-gnu/libc.a(libc-start.o)");
        assert_eq!((s[2].addr, s[2].size, s[2].output.as_str()), (0x20000, 0x360, ".rodata.hot"));
        assert_eq!(s[3].section, ".rodata._ZN6ukperf4main17h7b911850c51a96e6E");
    }

    #[test]
    fn a_line_that_is_not_the_table_is_an_error() {
        assert!(input_sections("header\nnot a map line\n").is_err());
    }
}
