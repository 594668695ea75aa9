//! InternetArchiveBot.

use crate::archiveurl::archived_copy_url;
use crate::report::BotRunReport;
use permadead_archive::{ArchiveStore, AvailabilityApi, AvailabilityError, AvailabilityPolicy};
use permadead_net::latency::Millis;
use permadead_net::{Client, Network, SimTime, StatusCode};
use permadead_wiki::wikitext::{DeadLinkTag, UrlStatus};
use permadead_wiki::{User, WikiStore};
use permadead_url::Url;

/// IABot's operating parameters. Defaults reproduce production behaviour as
/// the paper characterizes it; ablations flip one knob at a time.
#[derive(Debug, Clone)]
pub struct IaBotConfig {
    /// Client-side timeout on Availability API lookups. `None` disables the
    /// timeout (the ablation that eliminates §4.1 misses).
    pub availability_timeout_ms: Option<Millis>,
    /// Which archived copies the bot will link to. Production:
    /// [`AvailabilityPolicy::Initial200Only`].
    pub copy_policy: AvailabilityPolicy,
    /// Re-examine links already tagged `{{dead link}}`? Production: `false`
    /// ("they should not always be excluded to maximize efficiency, as IABot
    /// currently does" — §3 implications).
    pub recheck_tagged_dead: bool,
    /// How many GETs the dead-check performs. Production: 1. (§3: "IABot
    /// determines whether the link is dead by attempting to fetch the link
    /// only once.")
    pub dead_check_attempts: u32,
}

impl Default for IaBotConfig {
    fn default() -> Self {
        IaBotConfig {
            availability_timeout_ms: Some(4_000),
            copy_policy: AvailabilityPolicy::Initial200Only,
            recheck_tagged_dead: false,
            dead_check_attempts: 1,
        }
    }
}

/// The bot.
pub struct IaBot {
    pub config: IaBotConfig,
    client: Client,
    /// Monotonic nonce for latency draws — consumed per availability call.
    nonce: u64,
}

impl IaBot {
    pub fn new(config: IaBotConfig) -> Self {
        IaBot {
            config,
            client: Client::new(),
            nonce: 0,
        }
    }

    /// Is the link dead right now? One GET (or `dead_check_attempts`), dead
    /// unless some attempt ends 200-after-redirects.
    pub fn link_is_dead<N: Network>(&self, web: &N, url: &Url, t: SimTime) -> bool {
        for attempt in 0..self.config.dead_check_attempts.max(1) {
            // retries happen on subsequent days (bot queues are slow)
            let when = t + permadead_net::Duration::days(i64::from(attempt));
            let rec = self.client.get(web, url, when);
            if rec.final_status() == Some(StatusCode::OK) {
                return false;
            }
        }
        true
    }

    /// Sweep every article in the wiki at time `t`: check links, patch or
    /// tag. Edits are saved as new revisions attributed to the bot account.
    pub fn sweep<N: Network>(
        &mut self,
        wiki: &mut WikiStore,
        web: &N,
        archive: &ArchiveStore,
        t: SimTime,
    ) -> BotRunReport {
        let titles: Vec<String> = wiki.articles().map(|a| a.title.clone()).collect();
        let mut report = BotRunReport::default();
        for title in titles {
            let r = self.sweep_article(wiki, web, archive, &title, t);
            report.merge(&r);
        }
        report
    }

    /// Sweep a single article.
    pub fn sweep_article<N: Network>(
        &mut self,
        wiki: &mut WikiStore,
        web: &N,
        archive: &ArchiveStore,
        title: &str,
        t: SimTime,
    ) -> BotRunReport {
        let mut report = BotRunReport::default();
        let Some(article) = wiki.get(title) else {
            return report;
        };
        let mut doc = article.current_doc();
        let targets: Vec<(Url, bool, bool)> = doc
            .refs()
            .map(|r| (r.url.clone(), r.is_permanently_dead(), r.is_archived()))
            .collect();

        let mut edited = false;
        let availability =
            AvailabilityApi::with_default_latency(archive, 0xAB07 ^ t.as_unix() as u64);

        for (url, tagged_dead, already_archived) in targets {
            if (tagged_dead && !self.config.recheck_tagged_dead) || already_archived {
                report.links_skipped += 1;
                continue;
            }
            report.links_checked += 1;
            if !self.link_is_dead(web, &url, t) {
                // a previously-tagged link that works again: untag it when
                // rechecking is enabled
                if tagged_dead {
                    if let Some(r) = doc.ref_for_mut(&url) {
                        r.dead_link = None;
                        r.url_status = UrlStatus::Live;
                        edited = true;
                    }
                }
                continue;
            }
            report.dead_found += 1;

            // the wiki is only written after the loop, so the article's
            // history is still the one the sweep started from
            let around = article.link_added_at(&url).unwrap_or(t);
            self.nonce += 1;
            let lookup = availability.closest_before(
                &url,
                around,
                t,
                self.config.copy_policy,
                self.config.availability_timeout_ms,
                self.nonce,
            );
            match lookup {
                Ok(Some(snap)) => {
                    if let Some(r) = doc.ref_for_mut(&url) {
                        r.archive_url = Some(archived_copy_url(&url, snap.captured));
                        r.archive_date = Some(snap.captured.date().to_string());
                        r.url_status = UrlStatus::Dead;
                        // a patched link is no longer "permanently dead"
                        r.dead_link = None;
                        edited = true;
                        report.patched += 1;
                    }
                }
                Ok(None) | Err(AvailabilityError::Timeout) => {
                    if matches!(lookup, Err(AvailabilityError::Timeout)) {
                        report.availability_timeouts += 1;
                    }
                    if let Some(r) = doc.ref_for_mut(&url) {
                        if !r.is_permanently_dead() {
                            r.dead_link = Some(DeadLinkTag {
                                date: month_year(t),
                                bot: Some(User::iabot().name),
                            });
                            r.url_status = UrlStatus::Dead;
                            edited = true;
                            report.tagged_permanently_dead += 1;
                        }
                    }
                }
            }
        }

        if edited {
            let summary = format!(
                "Rescuing {} sources and tagging {} as dead.",
                report.patched, report.tagged_permanently_dead
            );
            wiki.get_mut(title)
                .expect("article still present")
                .save_doc(t, User::iabot(), &doc, &summary);
            report.articles_edited = 1;
        }
        report
    }
}

/// "February 2021"-style tag dates.
fn month_year(t: SimTime) -> String {
    const MONTHS: [&str; 12] = [
        "January", "February", "March", "April", "May", "June", "July", "August", "September",
        "October", "November", "December",
    ];
    let d = t.date();
    format!("{} {}", MONTHS[(d.month - 1) as usize], d.year)
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_archive::Snapshot;
    use permadead_net::{Request, Response, ServeResult};
    use permadead_wiki::wikitext::{CiteRef, Document};
    use permadead_wiki::Article;
    use std::collections::HashMap;

    struct TableNet(HashMap<String, ServeResult>);

    impl Network for TableNet {
        fn request(&self, req: &Request) -> ServeResult {
            self.0
                .get(&req.url.to_string())
                .cloned()
                .unwrap_or(Ok(Response::not_found()))
        }
    }

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn t(y: i32, m: u32) -> SimTime {
        SimTime::from_ymd(y, m, 1)
    }

    fn wiki_with(urls: &[&str]) -> WikiStore {
        let mut w = WikiStore::new();
        let mut a = Article::new("Test Article");
        let mut doc = Document::new();
        doc.push_prose("Intro. ");
        for (i, url) in urls.iter().enumerate() {
            doc.push_ref(CiteRef::cite_web(u(url), &format!("Ref {i}")));
        }
        a.save_doc(t(2012, 6), User::human("Editor"), &doc, "create");
        w.insert(a);
        w
    }

    fn alive(url: &str) -> (String, ServeResult) {
        (url.to_string(), Ok(Response::ok("live page body".into())))
    }

    #[test]
    fn live_links_untouched() {
        let mut wiki = wiki_with(&["http://e.org/alive"]);
        let net = TableNet([alive("http://e.org/alive")].into_iter().collect());
        let archive = ArchiveStore::new();
        let mut bot = IaBot::new(IaBotConfig::default());
        let report = bot.sweep(&mut wiki, &net, &archive, t(2021, 2));
        assert_eq!(report.links_checked, 1);
        assert_eq!(report.dead_found, 0);
        assert_eq!(report.articles_edited, 0);
        assert!(!wiki.get("Test Article").unwrap().has_permanently_dead_link());
    }

    #[test]
    fn dead_link_with_200_copy_gets_patched() {
        let mut wiki = wiki_with(&["http://e.org/dead"]);
        let net = TableNet(HashMap::new()); // 404 everywhere
        let mut archive = ArchiveStore::new();
        archive.insert(Snapshot::from_observation(
            &u("http://e.org/dead"),
            t(2013, 1),
            StatusCode::OK,
            None,
            "archived body",
        ));
        let mut bot = IaBot::new(IaBotConfig {
            availability_timeout_ms: None, // deterministic success
            ..Default::default()
        });
        let report = bot.sweep(&mut wiki, &net, &archive, t(2021, 2));
        assert_eq!(report.dead_found, 1);
        assert_eq!(report.patched, 1);
        assert_eq!(report.tagged_permanently_dead, 0);
        let doc = wiki.get("Test Article").unwrap().current_doc();
        let r = doc.refs().next().unwrap();
        assert!(r.is_archived());
        assert!(r.archive_url.as_ref().unwrap().to_string().contains("20130101"));
        assert_eq!(r.url_status, UrlStatus::Dead);
        assert!(!r.is_permanently_dead());
    }

    #[test]
    fn dead_link_without_copy_gets_tagged() {
        let mut wiki = wiki_with(&["http://e.org/dead"]);
        let net = TableNet(HashMap::new());
        let archive = ArchiveStore::new();
        let mut bot = IaBot::new(IaBotConfig {
            availability_timeout_ms: None,
            ..Default::default()
        });
        let report = bot.sweep(&mut wiki, &net, &archive, t(2021, 2));
        assert_eq!(report.tagged_permanently_dead, 1);
        let a = wiki.get("Test Article").unwrap();
        assert!(a.has_permanently_dead_link());
        let prov = a.link_provenance(&u("http://e.org/dead")).unwrap();
        assert_eq!(prov.marked_dead_by.as_deref(), Some("InternetArchiveBot"));
        assert_eq!(prov.marked_dead_at, Some(t(2021, 2)));
        // tag carries the month
        let doc = a.current_doc();
        assert_eq!(
            doc.refs().next().unwrap().dead_link.as_ref().unwrap().date,
            "February 2021"
        );
    }

    #[test]
    fn redirect_only_copy_is_distrusted() {
        // §4.2: a 301 archived copy exists, but production policy ignores it
        let mut wiki = wiki_with(&["http://e.org/dead"]);
        let net = TableNet(HashMap::new());
        let mut archive = ArchiveStore::new();
        archive.insert(Snapshot::from_observation(
            &u("http://e.org/dead"),
            t(2013, 1),
            StatusCode::MOVED_PERMANENTLY,
            Some(u("http://e.org/moved")),
            "",
        ));
        let mut bot = IaBot::new(IaBotConfig {
            availability_timeout_ms: None,
            ..Default::default()
        });
        let report = bot.sweep(&mut wiki, &net, &archive, t(2021, 2));
        assert_eq!(report.patched, 0);
        assert_eq!(report.tagged_permanently_dead, 1);

        // counterfactual policy accepts it
        let mut wiki2 = wiki_with(&["http://e.org/dead"]);
        let mut bot2 = IaBot::new(IaBotConfig {
            availability_timeout_ms: None,
            copy_policy: AvailabilityPolicy::AllowRedirects,
            ..Default::default()
        });
        let report2 = bot2.sweep(&mut wiki2, &net, &archive, t(2021, 2));
        assert_eq!(report2.patched, 1);
    }

    #[test]
    fn tagged_links_are_skipped_by_default() {
        let mut wiki = wiki_with(&["http://e.org/dead"]);
        let net = TableNet(HashMap::new());
        let archive = ArchiveStore::new();
        let mut bot = IaBot::new(IaBotConfig {
            availability_timeout_ms: None,
            ..Default::default()
        });
        bot.sweep(&mut wiki, &net, &archive, t(2021, 2));
        // second sweep skips the tagged link entirely
        let second = bot.sweep(&mut wiki, &net, &archive, t(2021, 8));
        assert_eq!(second.links_checked, 0);
        assert_eq!(second.links_skipped, 1);
    }

    #[test]
    fn recheck_untags_revived_links() {
        let mut wiki = wiki_with(&["http://e.org/dead"]);
        let archive = ArchiveStore::new();
        // 2021: dead
        let dead_net = TableNet(HashMap::new());
        let mut bot = IaBot::new(IaBotConfig {
            availability_timeout_ms: None,
            recheck_tagged_dead: true,
            ..Default::default()
        });
        bot.sweep(&mut wiki, &dead_net, &archive, t(2021, 2));
        assert!(wiki.get("Test Article").unwrap().has_permanently_dead_link());
        // 2022: revived (redirects now exist upstream; here it just answers)
        let live_net = TableNet([alive("http://e.org/dead")].into_iter().collect());
        let report = bot.sweep(&mut wiki, &live_net, &archive, t(2022, 3));
        assert_eq!(report.links_checked, 1);
        assert!(!wiki.get("Test Article").unwrap().has_permanently_dead_link());
    }

    #[test]
    fn timeout_causes_spurious_permanent_dead_tag() {
        // §4.1 in miniature: a 200 copy exists, but with an aggressive
        // timeout some availability lookups fail and the link gets tagged.
        let net = TableNet(HashMap::new());
        let mut archive = ArchiveStore::new();
        for i in 0..40 {
            archive.insert(Snapshot::from_observation(
                &u(&format!("http://e.org/dead{i}")),
                t(2013, 1),
                StatusCode::OK,
                None,
                "archived body",
            ));
        }
        let urls: Vec<String> = (0..40).map(|i| format!("http://e.org/dead{i}")).collect();
        let url_refs: Vec<&str> = urls.iter().map(|s| s.as_str()).collect();
        let mut wiki = wiki_with(&url_refs);
        let mut bot = IaBot::new(IaBotConfig {
            availability_timeout_ms: Some(400), // tight: heavy tail will trip it
            ..Default::default()
        });
        let report = bot.sweep(&mut wiki, &net, &archive, t(2021, 2));
        assert_eq!(report.dead_found, 40);
        assert!(report.availability_timeouts > 0, "expected some timeouts");
        assert_eq!(
            report.tagged_permanently_dead, report.availability_timeouts,
            "every timeout should have produced a spurious tag"
        );
        assert_eq!(report.patched, 40 - report.availability_timeouts);
    }

    #[test]
    fn picks_copy_closest_to_added_date() {
        let mut wiki = wiki_with(&["http://e.org/dead"]); // added 2012-06
        let net = TableNet(HashMap::new());
        let mut archive = ArchiveStore::new();
        for (y, m) in [(2008, 1), (2013, 1), (2019, 6)] {
            archive.insert(Snapshot::from_observation(
                &u("http://e.org/dead"),
                t(y, m),
                StatusCode::OK,
                None,
                "archived",
            ));
        }
        let mut bot = IaBot::new(IaBotConfig {
            availability_timeout_ms: None,
            ..Default::default()
        });
        bot.sweep(&mut wiki, &net, &archive, t(2021, 2));
        let doc = wiki.get("Test Article").unwrap().current_doc();
        let au = doc.refs().next().unwrap().archive_url.as_ref().unwrap().to_string();
        assert!(au.contains("/web/20130101"), "got {au}");
    }
}
