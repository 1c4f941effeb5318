//! The developer porting-effort survey of Figure 6.
//!
//! §4.2: the authors surveyed the ~70 developers who ported libraries or
//! applications, asking how long the port itself took, how long its
//! dependencies took, and how much time went into missing OS or build
//! system primitives. Figure 6 aggregates the answers per quarter and
//! shows the effort collapsing as the common code base matured.

/// Effort categories of Figure 6.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum EffortCategory {
    /// Porting the library/application itself.
    Libraries,
    /// Porting its dependencies (e.g. memcached needs libevent).
    LibraryDependencies,
    /// Implementing missing OS primitives (e.g. `poll()`).
    OsPrimitives,
    /// Extending the build system.
    BuildSystemPrimitives,
}

impl EffortCategory {
    /// All categories in the figure's legend order.
    pub fn all() -> [EffortCategory; 4] {
        [
            EffortCategory::Libraries,
            EffortCategory::LibraryDependencies,
            EffortCategory::OsPrimitives,
            EffortCategory::BuildSystemPrimitives,
        ]
    }

    /// Legend label.
    pub fn label(self) -> &'static str {
        match self {
            EffortCategory::Libraries => "Libraries",
            EffortCategory::LibraryDependencies => "Library dependencies",
            EffortCategory::OsPrimitives => "OS primitives",
            EffortCategory::BuildSystemPrimitives => "Build system primitives",
        }
    }
}

/// One quarter of survey data: total working days per category
/// (Figure 6's stacked bars).
#[derive(Debug, Clone, Copy)]
// ukcheck: allow(unused-pub) -- the rows of the public `SURVEY`
pub struct QuarterEffort {
    /// Quarter label.
    pub quarter: &'static str,
    /// Days porting libraries.
    pub libraries: u32,
    /// Days porting dependencies.
    pub dependencies: u32,
    /// Days implementing OS primitives.
    pub os_primitives: u32,
    /// Days extending the build system.
    pub build_system: u32,
}

impl QuarterEffort {
    /// Total days in the quarter.
    pub fn total(&self) -> u32 {
        self.libraries + self.dependencies + self.os_primitives + self.build_system
    }
}

/// The Figure 6 dataset.
pub static SURVEY: &[QuarterEffort] = &[
    QuarterEffort {
        quarter: "Q2 2019",
        libraries: 132,
        dependencies: 88,
        os_primitives: 43,
        build_system: 24,
    },
    QuarterEffort {
        quarter: "Q3 2019",
        libraries: 60,
        dependencies: 22,
        os_primitives: 1,
        build_system: 0,
    },
    QuarterEffort {
        quarter: "Q4 2019",
        libraries: 31,
        dependencies: 21,
        os_primitives: 46,
        build_system: 4,
    },
    QuarterEffort {
        quarter: "Q1 2020",
        libraries: 16,
        dependencies: 18,
        os_primitives: 0,
        build_system: 0,
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_quarters() {
        assert_eq!(SURVEY.len(), 4);
        assert_eq!(SURVEY[0].quarter, "Q2 2019");
    }

    #[test]
    fn figure6_peak_total() {
        // Q2 2019 peaks at 132 + 88 + 43 + 24 = 287 days.
        assert_eq!(SURVEY[0].total(), 287);
    }

    #[test]
    fn porting_effort_declines_as_base_matures() {
        // The last quarter's total effort is far below the first's.
        assert!(SURVEY[SURVEY.len() - 1].total() * 3 < SURVEY[0].total());
        assert!(SURVEY[3].total() < SURVEY[0].total());
    }

    #[test]
    fn categories_have_labels() {
        for c in EffortCategory::all() {
            assert!(!c.label().is_empty());
        }
    }
}
