//! Corpus generator: facts first, then pages, deterministically from a seed.

use crate::names;
use crate::noise::{self, NoiseConfig};
use crate::render;
use crate::truth::{CityFact, CompanyFact, GroundTruth, PersonFact, PublicationFact};
use crate::types::{DocId, DocKind, Document};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Knobs controlling corpus size and imperfection.
#[derive(Debug, Clone, PartialEq)]
pub struct CorpusConfig {
    /// RNG seed; everything downstream is a pure function of this config.
    pub seed: u64,
    /// Number of city pages.
    pub n_cities: usize,
    /// Number of distinct real-world people.
    pub n_people: usize,
    /// Fraction of people that get a second page under a name variant
    /// (the ground-truth duplicates for entity resolution).
    pub duplicate_rate: f64,
    /// Number of company pages.
    pub n_companies: usize,
    /// Number of publication pages.
    pub n_publications: usize,
    /// Noise model applied while rendering.
    pub noise: NoiseConfig,
}

impl Default for CorpusConfig {
    fn default() -> Self {
        CorpusConfig {
            seed: 0,
            n_cities: 50,
            n_people: 100,
            duplicate_rate: 0.3,
            n_companies: 20,
            n_publications: 40,
            noise: NoiseConfig::default(),
        }
    }
}

/// Invalid corpus configuration.
#[derive(Debug, Clone, PartialEq)]
pub enum CorpusError {
    /// A probability or rate lies outside `[0,1]`.
    InvalidRate {
        /// Which parameter.
        parameter: String,
        /// The offending value.
        value: f64,
    },
}

impl std::fmt::Display for CorpusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CorpusError::InvalidRate { parameter, value } => {
                write!(f, "corpus config: {parameter} = {value} outside [0,1]")
            }
        }
    }
}

impl std::error::Error for CorpusError {}

impl CorpusConfig {
    /// Check every rate and probability is within `[0,1]`.
    pub fn validate(&self) -> Result<(), CorpusError> {
        if !(0.0..=1.0).contains(&self.duplicate_rate) {
            return Err(CorpusError::InvalidRate {
                parameter: "duplicate_rate".into(),
                value: self.duplicate_rate,
            });
        }
        self.noise.validate().map_err(|msg| {
            let (parameter, value) = msg
                .split_once(" = ")
                .and_then(|(p, rest)| {
                    let v = rest.split_whitespace().next()?.parse().ok()?;
                    Some((p.to_string(), v))
                })
                .unwrap_or((msg, f64::NAN));
            CorpusError::InvalidRate { parameter, value }
        })
    }

    /// A small corpus for unit tests and doc examples.
    pub fn tiny(seed: u64) -> Self {
        CorpusConfig {
            seed,
            n_cities: 8,
            n_people: 12,
            duplicate_rate: 0.25,
            n_companies: 5,
            n_publications: 6,
            noise: NoiseConfig::default(),
        }
    }
}

/// A generated corpus: pages plus the ground truth they were rendered from.
#[derive(Debug, Clone)]
pub struct Corpus {
    /// All documents, ids dense in `0..docs.len()`.
    pub docs: Vec<Document>,
    /// The facts each page was rendered from.
    pub truth: GroundTruth,
    /// The configuration that produced this corpus.
    pub config: CorpusConfig,
}

impl Corpus {
    /// Generate a corpus from a configuration. Deterministic in `config`.
    pub fn generate(config: &CorpusConfig) -> Corpus {
        config.noise.validate().expect("invalid noise config");
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut docs: Vec<Document> = Vec::new();
        let mut truth = GroundTruth::default();
        fn alloc(docs: &mut Vec<Document>, title: String, text: String, kind: DocKind) -> DocId {
            let id = DocId(docs.len() as u32);
            docs.push(Document { id, title, text, kind });
            id
        }

        // Cities first: other pages reference them.
        for i in 0..config.n_cities {
            let name = names::city_name(i);
            let state = names::STATES[rng.gen_range(0..names::STATES.len())].to_string();
            // Seasonal curve: winter low in [-5, 35], summer amplitude in [25, 55].
            let base = rng.gen_range(-5..=35);
            let amp = rng.gen_range(25..=55);
            let monthly_temp_f: Vec<i32> = (0..12)
                .map(|m| {
                    let phase = (m as f64 - 6.5).abs() / 6.5; // 1 at Jan/Dec, ~0 in July
                    let t = base as f64 + amp as f64 * (1.0 - phase);
                    t.round() as i32 + rng.gen_range(-2..=2)
                })
                .collect();
            let fact = CityFact {
                doc: DocId(docs.len() as u32),
                name: name.clone(),
                state,
                population: rng.gen_range(5_000..2_000_000),
                founded: rng.gen_range(1780..1950),
                monthly_temp_f,
                area_sq_mi: (rng.gen_range(50..5000) as f64) / 10.0,
            };
            let text = render::render_city(&fact, &config.noise, &mut rng);
            let full_title = format!("{}, {}", fact.name, fact.state);
            alloc(&mut docs, full_title, text, DocKind::City);
            truth.cities.push(fact);
        }

        // Companies next: people reference employers.
        for i in 0..config.n_companies {
            let name = names::company_name(i);
            let hq = truth.cities[rng.gen_range(0..truth.cities.len().max(1))].name.clone();
            let fact = CompanyFact {
                doc: DocId(docs.len() as u32),
                name: name.clone(),
                founded: rng.gen_range(1900..2008),
                headquarters: hq,
                industry: names::INDUSTRIES[rng.gen_range(0..names::INDUSTRIES.len())].to_string(),
            };
            let text = render::render_company(&fact, &config.noise, &mut rng);
            alloc(&mut docs, name, text, DocKind::Company);
            truth.companies.push(fact);
        }

        // People; a fraction get a duplicate page under a name variant.
        for i in 0..config.n_people {
            let (full, first, last) = names::person_name(i);
            let employer = if truth.companies.is_empty() {
                "independent".to_string()
            } else {
                truth.companies[rng.gen_range(0..truth.companies.len())].name.clone()
            };
            let residence = truth.cities[rng.gen_range(0..truth.cities.len().max(1))].name.clone();
            let base = PersonFact {
                doc: DocId(docs.len() as u32),
                name: full.clone(),
                birth_year: rng.gen_range(1930..1990),
                employer,
                residence,
                entity: i as u32,
            };
            let text = render::render_person(&base, &full, &config.noise, &mut rng);
            alloc(&mut docs, full.clone(), text, DocKind::Person);
            truth.people.push(base.clone());

            if rng.gen_bool(config.duplicate_rate) {
                let surface = noise::name_variant(&full, first, last, &mut rng);
                let dup = PersonFact { doc: DocId(docs.len() as u32), ..base };
                let text = render::render_person(&dup, &surface, &config.noise, &mut rng);
                alloc(&mut docs, surface, text, DocKind::Person);
                truth.people.push(dup);
            }
        }

        // Publications reference people as authors, sometimes via variants.
        for i in 0..config.n_publications {
            let title = names::paper_title(i, &mut rng);
            let n_authors = rng.gen_range(1..=3.min(config.n_people.max(1)));
            let mut authors = Vec::with_capacity(n_authors);
            let mut surface = Vec::with_capacity(n_authors);
            for _ in 0..n_authors {
                let pi = rng.gen_range(0..config.n_people.max(1));
                let (full, first, last) = names::person_name(pi);
                if rng.gen_bool(config.noise.name_variant) {
                    surface.push(noise::name_variant(&full, first, last, &mut rng));
                } else {
                    surface.push(full.clone());
                }
                authors.push(full);
            }
            let fact = PublicationFact {
                doc: DocId(docs.len() as u32),
                title: title.clone(),
                year: rng.gen_range(1995..2009),
                venue: names::VENUES[rng.gen_range(0..names::VENUES.len())].to_string(),
                authors,
            };
            let text = render::render_publication(&fact, &surface, &config.noise, &mut rng);
            alloc(&mut docs, title, text, DocKind::Publication);
            truth.publications.push(fact);
        }

        Corpus { docs, truth, config: config.clone() }
    }

    /// Total bytes of page text.
    pub fn total_bytes(&self) -> usize {
        self.docs.iter().map(Document::len).sum()
    }

    /// Look up a document by id. Panics if the id is out of range.
    pub fn doc(&self, id: DocId) -> &Document {
        &self.docs[id.index()]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let cfg = CorpusConfig::tiny(7);
        let a = Corpus::generate(&cfg);
        let b = Corpus::generate(&cfg);
        assert_eq!(a.docs, b.docs);
        assert_eq!(a.truth.cities, b.truth.cities);
    }

    #[test]
    fn different_seeds_differ() {
        let a = Corpus::generate(&CorpusConfig::tiny(1));
        let b = Corpus::generate(&CorpusConfig::tiny(2));
        assert_ne!(a.docs[0].text, b.docs[0].text);
    }

    #[test]
    fn doc_ids_are_dense_and_match_truth() {
        let c = Corpus::generate(&CorpusConfig::tiny(3));
        for (i, d) in c.docs.iter().enumerate() {
            assert_eq!(d.id.index(), i);
        }
        for cf in &c.truth.cities {
            assert_eq!(c.doc(cf.doc).kind, DocKind::City);
            assert!(c.doc(cf.doc).title.starts_with(&cf.name));
        }
        for pf in &c.truth.people {
            assert_eq!(c.doc(pf.doc).kind, DocKind::Person);
        }
    }

    #[test]
    fn duplicate_rate_produces_clusters() {
        let cfg = CorpusConfig { n_people: 200, duplicate_rate: 0.5, ..CorpusConfig::tiny(11) };
        let c = Corpus::generate(&cfg);
        let clusters = c.truth.person_clusters();
        let multi = clusters.values().filter(|v| v.len() > 1).count();
        assert!(multi > 50, "expected many duplicate clusters, got {multi}");
        assert!(c.truth.people.len() > 200);
    }

    #[test]
    fn zero_duplicate_rate_means_singletons() {
        let cfg = CorpusConfig { duplicate_rate: 0.0, ..CorpusConfig::tiny(4) };
        let c = Corpus::generate(&cfg);
        assert!(c.truth.person_clusters().values().all(|v| v.len() == 1));
    }

    #[test]
    fn temperatures_follow_seasonal_shape() {
        let c = Corpus::generate(&CorpusConfig::tiny(5));
        for city in &c.truth.cities {
            let jan = city.monthly_temp_f[0];
            let jul = city.monthly_temp_f[6];
            assert!(jul > jan, "july {jul} should exceed january {jan}");
            assert_eq!(city.monthly_temp_f.len(), 12);
        }
    }

    #[test]
    fn monthly_temps_within_plausible_bounds() {
        let c = Corpus::generate(&CorpusConfig::tiny(6));
        for city in &c.truth.cities {
            for &t in &city.monthly_temp_f {
                assert!((-20..=130).contains(&t), "temp {t} out of plausible range");
            }
        }
    }

    #[test]
    fn publication_authors_are_real_people() {
        let c = Corpus::generate(&CorpusConfig::tiny(8));
        let names: std::collections::HashSet<_> =
            c.truth.people.iter().map(|p| p.name.as_str()).collect();
        for p in &c.truth.publications {
            for a in &p.authors {
                assert!(names.contains(a.as_str()), "unknown author {a}");
            }
        }
    }

    #[test]
    fn total_bytes_positive() {
        let c = Corpus::generate(&CorpusConfig::tiny(9));
        assert!(c.total_bytes() > 1000);
    }
}
