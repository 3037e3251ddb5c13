//! Ground-truth fact tables retained alongside the generated pages.
//!
//! Every fact that the renderer writes into a page body is first recorded
//! here, so extraction and integration accuracy can be scored exactly.

use crate::types::DocId;
use std::collections::BTreeMap;

/// True facts about one city page.
#[derive(Debug, Clone, PartialEq)]
pub struct CityFact {
    /// Document carrying the facts.
    pub doc: DocId,
    /// Canonical city name ("Madison").
    pub name: String,
    /// State the city is in.
    pub state: String,
    /// Resident count.
    pub population: u64,
    /// Founding year.
    pub founded: u16,
    /// Mean temperature per month (°F), January..December. Always 12 entries.
    pub monthly_temp_f: Vec<i32>,
    /// Land area in square miles, one decimal of precision.
    pub area_sq_mi: f64,
}

impl CityFact {
    /// Mean temperature over an inclusive month range (0-based, Jan = 0).
    ///
    /// This is the paper's motivating query ("average March–September
    /// temperature in Madison"): the ground-truth answer extraction-based
    /// query answering is scored against.
    pub fn avg_temp(&self, from_month: usize, to_month: usize) -> f64 {
        assert!(from_month <= to_month && to_month < 12, "invalid month range");
        let slice = &self.monthly_temp_f[from_month..=to_month];
        slice.iter().map(|&t| t as f64).sum::<f64>() / slice.len() as f64
    }
}

/// True facts about one person page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PersonFact {
    /// Document carrying the facts.
    pub doc: DocId,
    /// Canonical full name ("David Smith").
    pub name: String,
    /// Year of birth.
    pub birth_year: u16,
    /// Employer company's canonical name.
    pub employer: String,
    /// City of residence (canonical city name).
    pub residence: String,
    /// Identifier of the real-world person this page describes.
    ///
    /// Several pages may describe the same person under name variants; pages
    /// sharing an `entity` id form a ground-truth duplicate cluster for
    /// entity-resolution scoring.
    pub entity: u32,
}

/// True facts about one company page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompanyFact {
    /// Document carrying the facts.
    pub doc: DocId,
    /// Canonical company name.
    pub name: String,
    /// Founding year.
    pub founded: u16,
    /// Headquarters city (canonical city name).
    pub headquarters: String,
    /// Industry label.
    pub industry: String,
}

/// True facts about one publication page.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PublicationFact {
    /// Document carrying the facts.
    pub doc: DocId,
    /// Paper title.
    pub title: String,
    /// Publication year.
    pub year: u16,
    /// Venue acronym.
    pub venue: String,
    /// Author canonical names, in order.
    pub authors: Vec<String>,
}

/// All ground truth for a corpus, in document order within each table.
#[derive(Debug, Clone, Default)]
pub struct GroundTruth {
    /// City facts, one per city page.
    pub cities: Vec<CityFact>,
    /// Person facts, one per person page (duplicates share `entity`).
    pub people: Vec<PersonFact>,
    /// Company facts, one per company page.
    pub companies: Vec<CompanyFact>,
    /// Publication facts, one per publication page.
    pub publications: Vec<PublicationFact>,
}

impl GroundTruth {
    /// Ground-truth duplicate clusters over person pages: entity id → doc ids.
    ///
    /// Used to score entity resolution: two person pages match iff they share
    /// an entity id.
    pub fn person_clusters(&self) -> BTreeMap<u32, Vec<DocId>> {
        let mut clusters: BTreeMap<u32, Vec<DocId>> = BTreeMap::new();
        for p in &self.people {
            clusters.entry(p.entity).or_default().push(p.doc);
        }
        clusters
    }

    /// Total number of fact *fields* rendered into pages (the denominator of
    /// extraction recall): each scalar field and each monthly temperature
    /// counts as one fact.
    pub fn fact_count(&self) -> usize {
        // city: name, state, population, founded, area + 12 temps = 17
        // person: name, birth_year, employer, residence = 4
        // company: name, founded, headquarters, industry = 4
        // publication: title, year, venue + authors
        self.cities.len() * 17
            + self.people.len() * 4
            + self.companies.len() * 4
            + self.publications.iter().map(|p| 3 + p.authors.len()).sum::<usize>()
    }

    /// Look up the city fact by canonical name.
    pub fn city(&self, name: &str) -> Option<&CityFact> {
        self.cities.iter().find(|c| c.name == name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn city() -> CityFact {
        CityFact {
            doc: DocId(0),
            name: "Madison".into(),
            state: "Wisconsin".into(),
            population: 250_000,
            founded: 1846,
            monthly_temp_f: vec![20, 24, 35, 47, 58, 68, 72, 70, 62, 50, 37, 25],
            area_sq_mi: 77.0,
        }
    }

    #[test]
    fn avg_temp_full_year() {
        let c = city();
        let avg = c.avg_temp(0, 11);
        assert!((avg - 47.333).abs() < 0.01, "{avg}");
    }

    #[test]
    fn avg_temp_march_september_matches_paper_example() {
        let c = city();
        // March..September inclusive = months 2..=8.
        let avg = c.avg_temp(2, 8);
        let expect = (35 + 47 + 58 + 68 + 72 + 70 + 62) as f64 / 7.0;
        assert_eq!(avg, expect);
    }

    #[test]
    #[should_panic(expected = "invalid month range")]
    fn avg_temp_rejects_bad_range() {
        city().avg_temp(5, 12);
    }

    #[test]
    fn person_clusters_group_by_entity() {
        let mut gt = GroundTruth::default();
        for (i, e) in [(0u32, 1u32), (1, 1), (2, 2)] {
            gt.people.push(PersonFact {
                doc: DocId(i),
                name: format!("p{i}"),
                birth_year: 1970,
                employer: "Acme".into(),
                residence: "Madison".into(),
                entity: e,
            });
        }
        let clusters = gt.person_clusters();
        assert_eq!(clusters[&1], vec![DocId(0), DocId(1)]);
        assert_eq!(clusters[&2], vec![DocId(2)]);
    }

    #[test]
    fn fact_count_sums_fields() {
        let mut gt = GroundTruth::default();
        gt.cities.push(city());
        gt.publications.push(PublicationFact {
            doc: DocId(1),
            title: "T".into(),
            year: 2009,
            venue: "CIDR".into(),
            authors: vec!["A".into(), "B".into()],
        });
        assert_eq!(gt.fact_count(), 17 + 5);
    }

    #[test]
    fn city_lookup_by_name() {
        let mut gt = GroundTruth::default();
        gt.cities.push(city());
        assert!(gt.city("Madison").is_some());
        assert!(gt.city("Gotham").is_none());
    }
}
