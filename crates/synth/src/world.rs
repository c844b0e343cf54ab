//! The persistent simulated world: persons, households and the decade
//! step that evolves them.
//!
//! The world is the *truth*. Census snapshots ([`crate::take_snapshot`])
//! are noisy observations of it. All randomness flows through a caller-
//! provided RNG and household iteration uses ordered maps, so a run is
//! fully reproducible from the seed.

use crate::config::SimConfig;
use crate::events::{EventLog, LifeEvent};
use crate::names::NamePools;
use census_model::{PersonId, Sex};
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::{BTreeMap, HashMap};

/// A real-world person as known to the simulator.
#[derive(Debug, Clone)]
pub struct Person {
    /// Persistent identity — this is the evaluation ground truth.
    pub id: PersonId,
    /// Sex.
    pub sex: Sex,
    /// Year of birth.
    pub birth_year: i32,
    /// Given name (never changes).
    pub first_name: String,
    /// Current family name (changes for women at marriage).
    pub surname: String,
    /// Current occupation; empty for young children.
    pub occupation: String,
    /// Current spouse, if married and spouse alive.
    pub spouse: Option<PersonId>,
    /// Father, if known to the simulation.
    pub father: Option<PersonId>,
    /// Mother, if known to the simulation.
    pub mother: Option<PersonId>,
    /// Whether the person is alive.
    pub alive: bool,
    /// Whether the person currently lives in the simulated region.
    pub present: bool,
}

impl Person {
    /// Age in completed years at the given year (may be negative before
    /// birth).
    #[must_use]
    pub fn age_at(&self, year: i32) -> i32 {
        year - self.birth_year
    }

    /// Alive and in the region — i.e. will appear on the next census.
    #[must_use]
    pub fn observable(&self) -> bool {
        self.alive && self.present
    }
}

/// A real-world household.
#[derive(Debug, Clone)]
pub struct WorldHousehold {
    /// Persistent world household id (distinct from snapshot-local ids).
    pub id: u64,
    /// Current head of household.
    pub head: PersonId,
    /// All members, including the head.
    pub members: Vec<PersonId>,
    /// Current street address.
    pub address: String,
}

/// The simulated region at one instant.
#[derive(Debug, Clone)]
pub struct World {
    /// Current simulation year.
    pub year: i32,
    persons: Vec<Person>,
    households: BTreeMap<u64, WorldHousehold>,
    home: HashMap<PersonId, u64>,
    next_household_id: u64,
    pools: NamePools,
    events: EventLog,
}

impl World {
    /// Create the initial population of `config.initial_households`
    /// households at `config.start_year`.
    pub fn genesis<R: Rng + ?Sized>(config: &SimConfig, rng: &mut R) -> Self {
        let mut world = World {
            year: config.start_year,
            persons: Vec::new(),
            households: BTreeMap::new(),
            home: HashMap::new(),
            next_household_id: 0,
            pools: NamePools::new(),
            events: EventLog::default(),
        };
        for _ in 0..config.initial_households {
            world.spawn_founder_household(rng);
        }
        world
    }

    /// All persons (including dead / emigrated ones).
    #[must_use]
    pub fn persons(&self) -> &[Person] {
        &self.persons
    }

    /// Person by id.
    ///
    /// # Panics
    ///
    /// Panics if the id was not allocated by this world.
    #[must_use]
    pub fn person(&self, id: PersonId) -> &Person {
        &self.persons[id.index()]
    }

    fn person_mut(&mut self, id: PersonId) -> &mut Person {
        &mut self.persons[id.index()]
    }

    /// Active households in deterministic (id) order.
    pub fn households(&self) -> impl Iterator<Item = &WorldHousehold> + '_ {
        self.households.values()
    }

    /// Number of active households.
    #[must_use]
    pub fn household_count(&self) -> usize {
        self.households.len()
    }

    /// Number of observable persons.
    #[must_use]
    pub fn population(&self) -> usize {
        self.persons.iter().filter(|p| p.observable()).count()
    }

    /// The full demographic event log of this run.
    #[must_use]
    pub fn events(&self) -> &EventLog {
        &self.events
    }

    fn new_person<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        sex: Sex,
        birth_year: i32,
        surname: String,
        father: Option<PersonId>,
        mother: Option<PersonId>,
    ) -> PersonId {
        let id = PersonId(self.persons.len() as u64);
        let first_name = self.pools.first_name(rng, sex);
        let age = self.year - birth_year;
        let occupation = if age >= 14 {
            self.pools.occupation(rng)
        } else {
            String::new()
        };
        self.persons.push(Person {
            id,
            sex,
            birth_year,
            first_name,
            surname,
            occupation,
            spouse: None,
            father,
            mother,
            alive: true,
            present: true,
        });
        id
    }

    fn new_household<R: Rng + ?Sized>(
        &mut self,
        rng: &mut R,
        head: PersonId,
        members: Vec<PersonId>,
    ) -> u64 {
        let id = self.next_household_id;
        self.next_household_id += 1;
        let address = self.pools.address(rng);
        for &m in &members {
            self.home.insert(m, id);
        }
        self.households.insert(
            id,
            WorldHousehold {
                id,
                head,
                members,
                address,
            },
        );
        id
    }

    /// Create a fresh immigrant/founder family: a head, usually a wife,
    /// children consistent with the parents' ages, and occasionally a
    /// servant or lodger.
    fn spawn_founder_household<R: Rng + ?Sized>(&mut self, rng: &mut R) -> u64 {
        let year = self.year;
        let surname = self.pools.surname(rng);
        let head_age = rng.gen_range(23..58);
        let head = self.new_person(rng, Sex::Male, year - head_age, surname.clone(), None, None);
        let mut members = vec![head];

        let married = rng.gen_bool(0.85);
        let mut wife = None;
        if married {
            let wife_age = (head_age - rng.gen_range(-2..8)).max(18);
            let w = self.new_person(
                rng,
                Sex::Female,
                year - wife_age,
                surname.clone(),
                None,
                None,
            );
            self.person_mut(head).spouse = Some(w);
            self.person_mut(w).spouse = Some(head);
            members.push(w);
            wife = Some(w);
        }

        if let Some(w) = wife {
            let wife_age = self.person(w).age_at(year);
            let fertile_years = (wife_age - 19).clamp(0, 22);
            let max_children = (fertile_years as f64 / 2.0).round().clamp(0.0, 7.0) as i64;
            // skew toward larger Victorian families
            let n_children = rng.gen_range((max_children + 2) / 3..=max_children) as usize;
            for _ in 0..n_children {
                let child_age = rng.gen_range(0..fertile_years.max(1));
                let sex = if rng.gen_bool(0.5) {
                    Sex::Male
                } else {
                    Sex::Female
                };
                let c = self.new_person(
                    rng,
                    sex,
                    year - child_age,
                    surname.clone(),
                    Some(head),
                    Some(w),
                );
                members.push(c);
            }
        }

        // some founder households host a married eldest child's family —
        // the co-resident sub-families whose later departure produces the
        // paper's split pattern (and grandchild roles on the form)
        if head_age >= 45 && rng.gen_bool(0.25) {
            let son_age = rng.gen_range(21..(head_age - 19).max(22));
            let son = self.new_person(
                rng,
                Sex::Male,
                year - son_age,
                surname.clone(),
                Some(head),
                wife,
            );
            let dil_age = (son_age - rng.gen_range(-2..5)).max(18);
            let dil = self.new_person(
                rng,
                Sex::Female,
                year - dil_age,
                surname.clone(),
                None,
                None,
            );
            self.person_mut(son).spouse = Some(dil);
            self.person_mut(dil).spouse = Some(son);
            members.push(son);
            members.push(dil);
            if dil_age > 20 && rng.gen_bool(0.6) {
                let gc_age = rng.gen_range(0..(dil_age - 19).clamp(1, 8));
                let sex = if rng.gen_bool(0.5) {
                    Sex::Male
                } else {
                    Sex::Female
                };
                let gc = self.new_person(
                    rng,
                    sex,
                    year - gc_age,
                    surname.clone(),
                    Some(son),
                    Some(dil),
                );
                members.push(gc);
            }
        }

        if rng.gen_bool(0.12) {
            // a live-in servant or lodger with their own surname
            let sex = if rng.gen_bool(0.6) {
                Sex::Female
            } else {
                Sex::Male
            };
            let age = rng.gen_range(15..45);
            let sn = self.pools.surname(rng);
            let extra = self.new_person(rng, sex, year - age, sn, None, None);
            if rng.gen_bool(0.5) {
                self.person_mut(extra).occupation = "servant".to_owned();
            }
            members.push(extra);
        }

        let id = self.new_household(rng, head, members.clone());
        self.events.push(LifeEvent::HouseholdImmigrated {
            year,
            household: id,
            members,
        });
        id
    }

    /// Advance the world by one census interval, applying all demographic
    /// events of [`SimConfig`].
    pub fn advance_decade<R: Rng + ?Sized>(&mut self, config: &SimConfig, rng: &mut R) {
        let span = config.interval;
        self.year += span;
        self.apply_deaths(rng);
        self.fix_headship();
        self.apply_marriages(config, rng);
        self.apply_births(config, rng);
        self.apply_subfamily_departures(config, rng);
        self.apply_leaving_home(config, rng);
        self.apply_merges(config, rng);
        self.apply_emigration(config, rng);
        self.apply_immigration(config, rng);
        self.apply_churn(config, rng);
        self.fix_headship();
        self.cleanup_empty_households();
    }

    fn death_probability(age: i32) -> f64 {
        match age {
            i32::MIN..=4 => 0.16,
            5..=14 => 0.05,
            15..=34 => 0.07,
            35..=54 => 0.12,
            55..=64 => 0.25,
            65..=74 => 0.45,
            _ => 0.75,
        }
    }

    fn apply_deaths<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        let year = self.year;
        let mut died = Vec::new();
        for p in &mut self.persons {
            if !p.observable() {
                continue;
            }
            let mid_age = p.age_at(year) - 5;
            if rng.gen_bool(Self::death_probability(mid_age).clamp(0.0, 1.0)) {
                p.alive = false;
                died.push(p.id);
            }
        }
        for id in died {
            self.remove_from_home(id);
            if let Some(sp) = self.person(id).spouse {
                self.person_mut(sp).spouse = None;
            }
            self.person_mut(id).spouse = None;
            self.events.push(LifeEvent::Death { year, person: id });
        }
    }

    fn remove_from_home(&mut self, person: PersonId) {
        if let Some(hid) = self.home.remove(&person) {
            if let Some(h) = self.households.get_mut(&hid) {
                h.members.retain(|&m| m != person);
            }
        }
    }

    /// Re-elect the head where the current head is gone: spouse first,
    /// then the eldest adult, then the eldest member.
    fn fix_headship(&mut self) {
        let year = self.year;
        let ids: Vec<u64> = self.households.keys().copied().collect();
        for hid in ids {
            let Some(h) = self.households.get(&hid) else {
                continue;
            };
            if h.members.contains(&h.head) && self.person(h.head).observable() {
                continue;
            }
            let members = h.members.clone();
            let old_head = h.head;
            let spouse_of_old = self.person(old_head).spouse;
            let new_head = members
                .iter()
                .copied()
                .find(|&m| Some(m) == spouse_of_old)
                .or_else(|| {
                    let mut adults: Vec<PersonId> = members
                        .iter()
                        .copied()
                        .filter(|&m| self.person(m).age_at(year) >= 18)
                        .collect();
                    adults.sort_by_key(|&m| self.person(m).birth_year);
                    adults.first().copied()
                })
                .or_else(|| {
                    let mut all = members.clone();
                    all.sort_by_key(|&m| self.person(m).birth_year);
                    all.first().copied()
                });
            if let Some(nh) = new_head {
                self.households.get_mut(&hid).expect("exists").head = nh;
            }
        }
    }

    fn apply_marriages<R: Rng + ?Sized>(&mut self, config: &SimConfig, rng: &mut R) {
        let year = self.year;
        let eligible = |p: &Person| {
            p.observable() && p.spouse.is_none() && (18..=42).contains(&(p.age_at(year) - 3))
        };
        let mut men: Vec<PersonId> = self
            .persons
            .iter()
            .filter(|p| p.sex == Sex::Male && eligible(p))
            .map(|p| p.id)
            .collect();
        let mut women: Vec<PersonId> = self
            .persons
            .iter()
            .filter(|p| p.sex == Sex::Female && eligible(p))
            .map(|p| p.id)
            .collect();
        men.shuffle(rng);
        women.shuffle(rng);
        for (&m, &w) in men.iter().zip(women.iter()) {
            if !rng.gen_bool(config.marriage_rate) {
                continue;
            }
            // avoid marrying within the same household (likely siblings)
            if self.home.get(&m) == self.home.get(&w) {
                continue;
            }
            self.person_mut(m).spouse = Some(w);
            self.person_mut(w).spouse = Some(m);
            let husband_surname = self.person(m).surname.clone();
            self.person_mut(w).surname = husband_surname;
            let groom_home = self.home.get(&m).copied();
            let groom_is_head = groom_home
                .and_then(|hid| self.households.get(&hid))
                .is_some_and(|h| h.head == m);
            self.remove_from_home(w);
            let marital_home = if groom_is_head {
                // wife joins the groom's existing household
                match groom_home {
                    Some(hid) => {
                        self.add_member(hid, w);
                        hid
                    }
                    None => self.new_household(rng, m, vec![m, w]),
                }
            } else if rng.gen_bool(config.stay_with_parents_rate) {
                // couple stays in the groom's parental household
                match groom_home {
                    Some(hid) => {
                        self.add_member(hid, w);
                        hid
                    }
                    None => {
                        self.remove_from_home(m);
                        self.new_household(rng, m, vec![m, w])
                    }
                }
            } else {
                self.remove_from_home(m);
                self.new_household(rng, m, vec![m, w])
            };
            self.events.push(LifeEvent::Marriage {
                year: self.year,
                husband: m,
                wife: w,
                household: marital_home,
            });
        }
    }

    fn add_member(&mut self, household: u64, person: PersonId) {
        if let Some(h) = self.households.get_mut(&household) {
            if !h.members.contains(&person) {
                h.members.push(person);
            }
            self.home.insert(person, household);
        }
    }

    fn apply_births<R: Rng + ?Sized>(&mut self, config: &SimConfig, rng: &mut R) {
        let year = self.year;
        let span = config.interval;
        let mothers: Vec<(PersonId, PersonId)> = self
            .persons
            .iter()
            .filter(|p| {
                p.sex == Sex::Female
                    && p.observable()
                    && p.spouse.is_some()
                    && (18..=44).contains(&(p.age_at(year) - span / 2))
            })
            .map(|p| (p.id, p.spouse.expect("checked")))
            .collect();
        for (mother, father) in mothers {
            if !self.person(father).observable() {
                continue;
            }
            // births over the interval, thinned by infant mortality
            let mean = config.fertility;
            let n = (0..4)
                .filter(|_| rng.gen_bool((mean / 4.0).clamp(0.0, 1.0)))
                .count();
            for _ in 0..n {
                if rng.gen_bool(0.15) {
                    continue; // died in infancy, never observed
                }
                let birth_year = year - rng.gen_range(0..span);
                let sex = if rng.gen_bool(0.512) {
                    Sex::Male
                } else {
                    Sex::Female
                };
                let surname = self.person(father).surname.clone();
                let child =
                    self.new_person(rng, sex, birth_year, surname, Some(father), Some(mother));
                if let Some(&hid) = self.home.get(&mother) {
                    self.add_member(hid, child);
                }
                self.events.push(LifeEvent::Birth {
                    year: birth_year,
                    person: child,
                    mother,
                    father,
                });
            }
        }
    }

    /// A married couple living in a household headed by neither of them
    /// departs with their children, founding a new household. This is the
    /// generator of the paper's *split* pattern.
    fn apply_subfamily_departures<R: Rng + ?Sized>(&mut self, config: &SimConfig, rng: &mut R) {
        let hids: Vec<u64> = self.households.keys().copied().collect();
        for hid in hids {
            let Some(h) = self.households.get(&hid) else {
                continue;
            };
            let head = h.head;
            let members = h.members.clone();
            // find a married man in the household who is not the head and
            // whose wife lives here too
            let subhead = members.iter().copied().find(|&m| {
                m != head
                    && self.person(m).sex == Sex::Male
                    && self
                        .person(m)
                        .spouse
                        .is_some_and(|w| members.contains(&w) && w != head)
            });
            let Some(sub) = subhead else { continue };
            if !rng.gen_bool(config.subfamily_departure_rate) {
                continue;
            }
            let wife = self.person(sub).spouse.expect("checked");
            let mut moving = vec![sub, wife];
            // take their children who live here
            for &m in &members {
                let p = self.person(m);
                if (p.father == Some(sub) || p.mother == Some(wife)) && !moving.contains(&m) {
                    moving.push(m);
                }
            }
            // never empty the old household below one member
            if members.len() - moving.len() < 1 {
                continue;
            }
            for &m in &moving {
                self.remove_from_home(m);
            }
            let new_hid = self.new_household(rng, sub, moving.clone());
            self.events.push(LifeEvent::SubfamilyDeparture {
                year: self.year,
                from_household: hid,
                new_household: new_hid,
                members: moving,
            });
        }
    }

    /// Unmarried adults leave the parental household: most found their own
    /// one-person household, some lodge with an existing household. This
    /// generates *move* patterns.
    fn apply_leaving_home<R: Rng + ?Sized>(&mut self, config: &SimConfig, rng: &mut R) {
        let year = self.year;
        let candidates: Vec<PersonId> = self
            .persons
            .iter()
            .filter(|p| {
                p.observable()
                    && p.spouse.is_none()
                    && (20..=39).contains(&p.age_at(year))
                    && self
                        .home
                        .get(&p.id)
                        .and_then(|h| self.households.get(h))
                        .is_some_and(|h| h.head != p.id && h.members.len() > 2)
            })
            .map(|p| p.id)
            .collect();
        let household_ids: Vec<u64> = self.households.keys().copied().collect();
        for id in candidates {
            if !rng.gen_bool(config.leave_home_rate) {
                continue;
            }
            let old_home = self.home.get(&id).copied();
            self.remove_from_home(id);
            let to_household = if rng.gen_bool(0.6) {
                self.new_household(rng, id, vec![id])
            } else {
                // lodge with a random *other* household
                let choices: Vec<u64> = household_ids
                    .iter()
                    .copied()
                    .filter(|&h| Some(h) != old_home && self.households.contains_key(&h))
                    .collect();
                match choices.as_slice().choose(rng) {
                    Some(&target) => {
                        self.add_member(target, id);
                        target
                    }
                    None => self.new_household(rng, id, vec![id]),
                }
            };
            if let Some(from) = old_home {
                self.events.push(LifeEvent::LeftHome {
                    year: self.year,
                    person: id,
                    from_household: from,
                    to_household,
                });
            }
        }
    }

    /// Small elderly households merge into a child's household — the
    /// generator of the paper's *merge* pattern.
    fn apply_merges<R: Rng + ?Sized>(&mut self, config: &SimConfig, rng: &mut R) {
        let year = self.year;
        let hids: Vec<u64> = self.households.keys().copied().collect();
        for hid in hids {
            let Some(h) = self.households.get(&hid) else {
                continue;
            };
            if h.members.len() > 3 || h.members.is_empty() {
                continue;
            }
            let head = h.head;
            if self.person(head).age_at(year) < 60 {
                continue;
            }
            if !rng.gen_bool(config.merge_rate) {
                continue;
            }
            // find a child of the head living elsewhere
            let target = self
                .persons
                .iter()
                .find(|p| {
                    p.observable()
                        && (p.father == Some(head) || p.mother == Some(head))
                        && self.home.get(&p.id).is_some_and(|&other| other != hid)
                })
                .and_then(|p| self.home.get(&p.id).copied());
            let Some(target_hid) = target else { continue };
            let movers = self.households.get(&hid).expect("exists").members.clone();
            for &m in &movers {
                self.remove_from_home(m);
                self.add_member(target_hid, m);
            }
            self.events.push(LifeEvent::HouseholdMerged {
                year: self.year,
                from_household: hid,
                into_household: target_hid,
                members: movers,
            });
        }
    }

    fn apply_emigration<R: Rng + ?Sized>(&mut self, config: &SimConfig, rng: &mut R) {
        let year = self.year;
        // whole households leave the region
        let hids: Vec<u64> = self.households.keys().copied().collect();
        for hid in hids {
            if !rng.gen_bool(config.household_emigration_rate) {
                continue;
            }
            if let Some(h) = self.households.remove(&hid) {
                for &m in &h.members {
                    self.home.remove(&m);
                    self.person_mut(m).present = false;
                }
                self.events.push(LifeEvent::HouseholdEmigrated {
                    year: self.year,
                    household: hid,
                    members: h.members,
                });
            }
        }
        // unmarried adults leave alone
        let leavers: Vec<PersonId> = self
            .persons
            .iter()
            .filter(|p| p.observable() && p.spouse.is_none() && (16..=45).contains(&p.age_at(year)))
            .map(|p| p.id)
            .collect();
        for id in leavers {
            if rng.gen_bool(config.individual_emigration_rate) {
                self.remove_from_home(id);
                self.person_mut(id).present = false;
                self.events.push(LifeEvent::PersonEmigrated {
                    year: self.year,
                    person: id,
                });
            }
        }
    }

    fn apply_immigration<R: Rng + ?Sized>(&mut self, config: &SimConfig, rng: &mut R) {
        let n = (self.households.len() as f64 * config.immigration_rate).round() as usize;
        for _ in 0..n {
            self.spawn_founder_household(rng);
        }
    }

    fn apply_churn<R: Rng + ?Sized>(&mut self, config: &SimConfig, rng: &mut R) {
        let year = self.year;
        for i in 0..self.persons.len() {
            let p = &self.persons[i];
            if !p.observable() {
                continue;
            }
            let age = p.age_at(year);
            let needs_first_occupation = age >= 14 && p.occupation.is_empty();
            let churns = age >= 18 && rng.gen_bool(config.occupation_churn);
            if needs_first_occupation || churns {
                self.persons[i].occupation = self.pools.occupation(rng);
            }
        }
        let hids: Vec<u64> = self.households.keys().copied().collect();
        for hid in hids {
            if rng.gen_bool(config.address_churn) {
                let addr = self.pools.address(rng);
                if let Some(h) = self.households.get_mut(&hid) {
                    h.address = addr;
                }
            }
        }
    }

    fn cleanup_empty_households(&mut self) {
        let empty: Vec<u64> = self
            .households
            .iter()
            .filter(|(_, h)| h.members.is_empty())
            .map(|(&id, _)| id)
            .collect();
        for id in empty {
            self.households.remove(&id);
        }
    }

    /// Structural self-check used by tests: every member of every
    /// household is observable, lives exactly where the index says, heads
    /// are members, and no person appears in two households.
    ///
    /// # Panics
    ///
    /// Panics on the first violated invariant.
    pub fn assert_consistent(&self) {
        let mut seen: HashMap<PersonId, u64> = HashMap::new();
        for h in self.households.values() {
            assert!(
                h.members.contains(&h.head),
                "head {} not a member of household {}",
                h.head,
                h.id
            );
            for &m in &h.members {
                let p = self.person(m);
                assert!(p.observable(), "{} in household {} not observable", m, h.id);
                assert_eq!(self.home.get(&m), Some(&h.id), "home index wrong for {m}");
                assert!(
                    seen.insert(m, h.id).is_none(),
                    "{m} appears in two households"
                );
            }
        }
        for (&p, &hid) in &self.home {
            assert!(
                self.households
                    .get(&hid)
                    .is_some_and(|h| h.members.contains(&p)),
                "home index points {p} at household {hid} that does not list it"
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn small_world(seed: u64) -> (World, SimConfig) {
        let config = SimConfig::small();
        let mut rng = StdRng::seed_from_u64(seed);
        (World::genesis(&config, &mut rng), config)
    }

    #[test]
    fn genesis_is_consistent() {
        let (world, config) = small_world(1);
        world.assert_consistent();
        assert_eq!(world.household_count(), config.initial_households);
        assert!(world.population() >= config.initial_households);
        assert_eq!(world.year, config.start_year);
    }

    #[test]
    fn decade_steps_stay_consistent() {
        let (mut world, config) = small_world(2);
        let mut rng = StdRng::seed_from_u64(99);
        for step in 0..3 {
            world.advance_decade(&config, &mut rng);
            world.assert_consistent();
            assert_eq!(world.year, config.start_year + 10 * (step + 1));
        }
    }

    #[test]
    fn population_grows_over_decades() {
        let (mut world, config) = small_world(3);
        let mut rng = StdRng::seed_from_u64(5);
        let before = world.population();
        for _ in 0..5 {
            world.advance_decade(&config, &mut rng);
        }
        let after = world.population();
        assert!(
            after as f64 > before as f64 * 1.2,
            "population should grow: {before} -> {after}"
        );
    }

    #[test]
    fn deaths_and_births_occur() {
        let (mut world, config) = small_world(4);
        let mut rng = StdRng::seed_from_u64(6);
        world.advance_decade(&config, &mut rng);
        let dead = world.persons().iter().filter(|p| !p.alive).count();
        let children = world
            .persons()
            .iter()
            .filter(|p| p.alive && p.age_at(world.year) < 10)
            .count();
        assert!(dead > 0, "some people must die in a decade");
        assert!(children > 0, "some children must be born in a decade");
    }

    #[test]
    fn marriages_change_surnames() {
        let (mut world, config) = small_world(7);
        let mut rng = StdRng::seed_from_u64(8);
        // remember unmarried women's surnames
        let before: Vec<(PersonId, String)> = world
            .persons()
            .iter()
            .filter(|p| p.sex == Sex::Female && p.spouse.is_none() && p.observable())
            .map(|p| (p.id, p.surname.clone()))
            .collect();
        for _ in 0..2 {
            world.advance_decade(&config, &mut rng);
        }
        let changed = before
            .iter()
            .filter(|(id, old_sn)| {
                let p = world.person(*id);
                p.spouse.is_some() && &p.surname != old_sn
            })
            .count();
        assert!(changed > 0, "some women must marry and change surname");
    }

    #[test]
    fn emigrants_leave_households() {
        let (mut world, config) = small_world(9);
        let mut rng = StdRng::seed_from_u64(10);
        world.advance_decade(&config, &mut rng);
        let gone = world
            .persons()
            .iter()
            .filter(|p| p.alive && !p.present)
            .count();
        assert!(gone > 0, "someone must emigrate");
        world.assert_consistent(); // and be fully detached
    }

    #[test]
    fn determinism_same_seed_same_world() {
        let run = |seed| {
            let config = SimConfig::small();
            let mut rng = StdRng::seed_from_u64(seed);
            let mut w = World::genesis(&config, &mut rng);
            for _ in 0..2 {
                w.advance_decade(&config, &mut rng);
            }
            (
                w.population(),
                w.household_count(),
                w.persons().len(),
                w.households().map(|h| h.members.len()).sum::<usize>(),
            )
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43)); // different seed, different world
    }

    #[test]
    fn event_log_is_consistent_with_world_state() {
        let (mut world, config) = small_world(20);
        let mut rng = StdRng::seed_from_u64(21);
        for _ in 0..2 {
            world.advance_decade(&config, &mut rng);
        }
        use crate::events::LifeEvent;
        let mut deaths = 0;
        let mut marriages = 0;
        let mut births = 0;
        for e in world.events().all() {
            match e {
                LifeEvent::Death { person, .. } => {
                    deaths += 1;
                    assert!(!world.person(*person).alive);
                }
                LifeEvent::Birth {
                    person,
                    mother,
                    father,
                    year,
                } => {
                    births += 1;
                    let p = world.person(*person);
                    assert_eq!(p.birth_year, *year);
                    assert_eq!(p.mother, Some(*mother));
                    assert_eq!(p.father, Some(*father));
                }
                LifeEvent::Marriage { husband, wife, .. } => {
                    marriages += 1;
                    // still married unless one died since
                    let h = world.person(*husband);
                    let w = world.person(*wife);
                    if h.alive && w.alive {
                        assert_eq!(h.spouse, Some(*wife));
                        assert_eq!(w.spouse, Some(*husband));
                    }
                }
                LifeEvent::PersonEmigrated { person, .. } => {
                    assert!(!world.person(*person).present);
                }
                _ => {}
            }
        }
        assert!(deaths > 0 && marriages > 0 && births > 0);
    }

    #[test]
    fn every_person_history_is_chronological() {
        let (mut world, config) = small_world(22);
        let mut rng = StdRng::seed_from_u64(23);
        world.advance_decade(&config, &mut rng);
        // pick some people and check their personal event timelines
        for p in world.persons().iter().take(50) {
            let years: Vec<i32> = world.events().of_person(p.id).map(|e| e.year()).collect();
            // birth (if logged) must come first
            if let Some(first) = years.first() {
                assert!(years.iter().all(|y| y >= &(first - 10)));
            }
        }
    }

    #[test]
    fn headship_is_repaired_after_death() {
        let (mut world, config) = small_world(11);
        let mut rng = StdRng::seed_from_u64(12);
        for _ in 0..3 {
            world.advance_decade(&config, &mut rng);
            for h in world.households() {
                assert!(h.members.contains(&h.head));
                assert!(world.person(h.head).observable());
            }
        }
    }
}
