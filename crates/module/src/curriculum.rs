//! Hierarchical learning modules (paper future work).
//!
//! The paper lists "hierarchical learning modules" among its planned
//! improvements: the shipped game presents a flat sequence of JSON files. A
//! curriculum arranges bundles into named units with prerequisites, so an
//! educator can require the traffic-topology unit before the DDoS unit, and a
//! student's progress unlocks units as they complete their prerequisites.

// tw-analyze: allow-file(no-panic-in-lib, "the built-in curriculum is authored as literals; each expect proves a module the curriculum tests serialize and validate end to end")
use crate::bundle::ModuleBundle;
use crate::error::{ModuleError, Result};
use crate::library;

/// One unit of a curriculum: a titled bundle plus prerequisite unit names.
#[derive(Debug, Clone, PartialEq)]
pub struct CurriculumUnit {
    /// The unit's name (unique within the curriculum).
    pub name: String,
    /// The modules taught by this unit.
    pub bundle: ModuleBundle,
    /// Names of units that must be completed first.
    pub prerequisites: Vec<String>,
}

/// A hierarchical curriculum: an ordered set of units with prerequisites.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Curriculum {
    units: Vec<CurriculumUnit>,
}

impl Curriculum {
    /// An empty curriculum.
    pub fn new() -> Self {
        Curriculum::default()
    }

    /// Add a unit. The unit name must be unique and every prerequisite must
    /// already exist (so the structure is acyclic by construction).
    pub fn add_unit(
        &mut self,
        name: &str,
        bundle: ModuleBundle,
        prerequisites: &[&str],
    ) -> Result<()> {
        if self.unit(name).is_some() {
            return Err(ModuleError::Invalid(format!(
                "duplicate curriculum unit {name:?}"
            )));
        }
        for prerequisite in prerequisites {
            if self.unit(prerequisite).is_none() {
                return Err(ModuleError::Invalid(format!(
                    "unit {name:?} requires unknown prerequisite {prerequisite:?} (units must be added after their prerequisites)"
                )));
            }
        }
        self.units.push(CurriculumUnit {
            name: name.to_string(),
            bundle,
            prerequisites: prerequisites.iter().map(|s| s.to_string()).collect(),
        });
        Ok(())
    }

    /// All units in insertion order.
    pub fn units(&self) -> &[CurriculumUnit] {
        &self.units
    }

    /// Find a unit by name.
    pub fn unit(&self, name: &str) -> Option<&CurriculumUnit> {
        self.units.iter().find(|u| u.name == name)
    }

    /// Number of units.
    pub fn len(&self) -> usize {
        self.units.len()
    }

    /// True when the curriculum has no units.
    pub fn is_empty(&self) -> bool {
        self.units.is_empty()
    }

    /// A full ordering of the units that respects prerequisites (the insertion
    /// order already does, by construction; this re-checks and returns it).
    pub fn schedule(&self) -> Result<Vec<&CurriculumUnit>> {
        let mut completed: Vec<String> = Vec::new();
        let mut schedule = Vec::new();
        // Repeatedly take the first not-yet-scheduled unit whose prerequisites
        // are satisfied; by construction this always succeeds.
        while schedule.len() < self.units.len() {
            let next = self
                .units
                .iter()
                .find(|u| {
                    !completed.contains(&u.name)
                        && u.prerequisites.iter().all(|p| completed.contains(p))
                })
                .ok_or_else(|| {
                    ModuleError::Invalid("curriculum prerequisites cannot be satisfied".to_string())
                })?;
            completed.push(next.name.clone());
            schedule.push(next);
        }
        Ok(schedule)
    }
}

/// The default Traffic Warehouse curriculum: the initial library arranged with
/// the prerequisite structure the paper's module descriptions imply (basics
/// first, topologies before the attack/DDoS analyses, graph theory unlocked by
/// the basics alone).
pub fn default_curriculum() -> Curriculum {
    let mut bundles = library::initial_library().into_iter();
    let basics = bundles.next().expect("library has 6 bundles");
    let topologies = bundles.next().expect("library has 6 bundles");
    let attack = bundles.next().expect("library has 6 bundles");
    let posture = bundles.next().expect("library has 6 bundles");
    let ddos = bundles.next().expect("library has 6 bundles");
    let graph = bundles.next().expect("library has 6 bundles");

    let mut curriculum = Curriculum::new();
    curriculum.add_unit("Basics", basics, &[]).expect("valid");
    curriculum
        .add_unit("Traffic Topologies", topologies, &["Basics"])
        .expect("valid");
    curriculum
        .add_unit("Graph Theory", graph, &["Basics"])
        .expect("valid");
    curriculum
        .add_unit(
            "Security, Defense, and Deterrence",
            posture,
            &["Traffic Topologies"],
        )
        .expect("valid");
    curriculum
        .add_unit("Notional Attack", attack, &["Traffic Topologies"])
        .expect("valid");
    curriculum
        .add_unit(
            "DDoS",
            ddos,
            &["Notional Attack", "Security, Defense, and Deterrence"],
        )
        .expect("valid");
    curriculum
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_curriculum_structure() {
        let curriculum = default_curriculum();
        assert_eq!(curriculum.len(), 6);
        let modules: usize = curriculum.units().iter().map(|u| u.bundle.len()).sum();
        assert_eq!(modules, 26);
        assert!(!curriculum.is_empty());
        let ddos = curriculum.unit("DDoS").unwrap();
        assert_eq!(ddos.prerequisites.len(), 2);
        assert!(curriculum.unit("Missing").is_none());
    }

    #[test]
    fn schedule_respects_prerequisites() {
        let curriculum = default_curriculum();
        let schedule = curriculum.schedule().unwrap();
        assert_eq!(schedule.len(), 6);
        let position = |name: &str| schedule.iter().position(|u| u.name == name).unwrap();
        assert!(position("Basics") < position("Traffic Topologies"));
        assert!(position("Notional Attack") < position("DDoS"));
        assert!(position("Security, Defense, and Deterrence") < position("DDoS"));
    }

    #[test]
    fn invalid_structures_are_rejected() {
        let mut curriculum = Curriculum::new();
        curriculum
            .add_unit("A", ModuleBundle::new("A"), &[])
            .unwrap();
        assert!(
            curriculum
                .add_unit("A", ModuleBundle::new("A2"), &[])
                .is_err(),
            "duplicate name"
        );
        assert!(
            curriculum
                .add_unit("B", ModuleBundle::new("B"), &["missing"])
                .is_err(),
            "unknown prerequisite"
        );
        // Forward references (which would allow cycles) are rejected too.
        assert!(curriculum
            .add_unit("C", ModuleBundle::new("C"), &["D"])
            .is_err());
    }
}
