//! WaybackMedic: the slow, comprehensive rescue bot.
//!
//! §4.1: after the authors reported that many permanently-dead links had
//! usable 200-status copies, the Internet Archive ran WaybackMedic over all
//! such links. It "runs more slowly than IABot and its execution requires
//! manual oversight, but it is more comprehensive in finding usable archived
//! copies" — operationally: the availability lookup has **no client
//! timeout**, so latency can't fake a missing copy. It still trusts only
//! initial-200 copies (the redirect-validation counterfactual is the
//! pipeline's job, §4.2).

use crate::archiveurl::archived_copy_url;
use permadead_archive::{ArchiveStore, AvailabilityApi, AvailabilityPolicy};
use permadead_net::SimTime;
use permadead_url::Url;
use permadead_wiki::wikitext::UrlStatus;
use permadead_wiki::{User, WikiStore};
use std::fmt;

/// Result of a medic pass.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MedicReport {
    /// Permanently-dead references examined.
    pub examined: usize,
    /// References rescued: a usable copy was found and the tag removed.
    pub rescued: usize,
    /// References left tagged (genuinely no initial-200 copy).
    pub left_tagged: usize,
}

impl fmt::Display for MedicReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "examined {}, rescued {}, left tagged {}",
            self.examined, self.rescued, self.left_tagged
        )
    }
}

/// The bot.
#[derive(Debug, Clone, Copy, Default)]
pub struct WaybackMedic {
    /// Accept validated redirect copies too (off in the §4.1 run; the §4.2
    /// counterfactual turns it on).
    pub allow_redirect_copies: bool,
}

impl WaybackMedic {
    pub fn new() -> Self {
        Self::default()
    }

    /// Visit every permanently-dead reference and rescue the ones with
    /// usable archived copies.
    pub fn run(&self, wiki: &mut WikiStore, archive: &ArchiveStore, t: SimTime) -> MedicReport {
        let titles: Vec<String> = wiki
            .permanently_dead_category()
            .iter()
            .map(|a| a.title.clone())
            .collect();
        let mut report = MedicReport::default();
        let policy = if self.allow_redirect_copies {
            AvailabilityPolicy::AllowRedirects
        } else {
            AvailabilityPolicy::Initial200Only
        };
        let availability = AvailabilityApi::with_default_latency(archive, 0x3D1C);

        for title in titles {
            let Some(article) = wiki.get(&title) else { continue };
            let mut doc = article.current_doc();
            let targets: Vec<(Url, Option<SimTime>)> = doc
                .refs()
                .filter(|r| r.is_permanently_dead())
                .map(|r| (r.url.clone(), article.link_added_at(&r.url)))
                .collect();
            if targets.is_empty() {
                continue;
            }
            let mut edited = false;
            for (url, added_at) in targets {
                report.examined += 1;
                // no client timeout: `None` waits for the API however long
                // it takes — the whole point of the medic
                let copy = availability
                    .closest_before(&url, added_at.unwrap_or(t), t, policy, None, 0)
                    .expect("no timeout configured");
                match copy {
                    Some(snap) => {
                        let r = doc.ref_for_mut(&url).expect("ref present");
                        r.archive_url = Some(archived_copy_url(&url, snap.captured));
                        r.archive_date = Some(snap.captured.date().to_string());
                        r.url_status = UrlStatus::Dead;
                        r.dead_link = None;
                        edited = true;
                        report.rescued += 1;
                    }
                    None => report.left_tagged += 1,
                }
            }
            if edited {
                wiki.get_mut(&title).expect("article present").save_doc(
                    t,
                    User::wayback_medic(),
                    &doc,
                    "Rescuing tagged dead links via WaybackMedic",
                );
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use permadead_archive::Snapshot;
    use permadead_net::StatusCode;
    use permadead_wiki::wikitext::{CiteRef, DeadLinkTag, Document};
    use permadead_wiki::Article;

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn t(y: i32) -> SimTime {
        SimTime::from_ymd(y, 5, 1)
    }

    fn tagged_wiki(urls: &[&str]) -> WikiStore {
        let mut w = WikiStore::new();
        let mut a = Article::new("Tagged");
        let mut doc = Document::new();
        for url in urls {
            let mut r = CiteRef::cite_web(u(url), "T");
            r.url_status = UrlStatus::Dead;
            r.dead_link = Some(DeadLinkTag {
                date: "February 2021".into(),
                bot: Some("InternetArchiveBot".into()),
            });
            doc.push_ref(r);
        }
        a.save_doc(t(2012), User::human("E"), &doc, "create");
        w.insert(a);
        w
    }

    #[test]
    fn rescues_links_with_200_copies() {
        let mut wiki = tagged_wiki(&["http://e.org/a", "http://e.org/b"]);
        let mut archive = ArchiveStore::new();
        archive.insert(Snapshot::from_observation(
            &u("http://e.org/a"),
            t(2013),
            StatusCode::OK,
            None,
            "body",
        ));
        let report = WaybackMedic::new().run(&mut wiki, &archive, t(2022));
        assert_eq!(report.examined, 2);
        assert_eq!(report.rescued, 1);
        assert_eq!(report.left_tagged, 1);
        let doc = wiki.get("Tagged").unwrap().current_doc();
        let a = doc.ref_for(&u("http://e.org/a")).unwrap();
        assert!(a.is_archived() && !a.is_permanently_dead());
        let b = doc.ref_for(&u("http://e.org/b")).unwrap();
        assert!(!b.is_archived() && b.is_permanently_dead());
    }

    #[test]
    fn never_times_out() {
        // 200 copies exist for every link; the medic must rescue them all,
        // no matter how slow the simulated API feels today
        let urls: Vec<String> = (0..60).map(|i| format!("http://e.org/p{i}")).collect();
        let url_refs: Vec<&str> = urls.iter().map(|s| s.as_str()).collect();
        let mut wiki = tagged_wiki(&url_refs);
        let mut archive = ArchiveStore::new();
        for url in &urls {
            archive.insert(Snapshot::from_observation(&u(url), t(2013), StatusCode::OK, None, "b"));
        }
        let report = WaybackMedic::new().run(&mut wiki, &archive, t(2022));
        assert_eq!(report.rescued, 60);
        assert_eq!(report.left_tagged, 0);
    }

    #[test]
    fn redirect_copies_only_rescued_when_allowed() {
        let mut archive = ArchiveStore::new();
        archive.insert(Snapshot::from_observation(
            &u("http://e.org/a"),
            t(2013),
            StatusCode::MOVED_PERMANENTLY,
            Some(u("http://e.org/new")),
            "",
        ));

        let mut strict_wiki = tagged_wiki(&["http://e.org/a"]);
        let strict = WaybackMedic::new().run(&mut strict_wiki, &archive, t(2022));
        assert_eq!(strict.rescued, 0);

        let mut relaxed_wiki = tagged_wiki(&["http://e.org/a"]);
        let medic = WaybackMedic { allow_redirect_copies: true };
        let relaxed = medic.run(&mut relaxed_wiki, &archive, t(2022));
        assert_eq!(relaxed.rescued, 1);
    }

    #[test]
    fn untagged_wiki_is_untouched() {
        let mut w = WikiStore::new();
        let mut a = Article::new("Clean");
        let mut doc = Document::new();
        doc.push_ref(CiteRef::cite_web(u("http://e.org/x"), "T"));
        a.save_doc(t(2012), User::human("E"), &doc, "create");
        w.insert(a);
        let revs_before = w.get("Clean").unwrap().revisions().len();
        let report = WaybackMedic::new().run(&mut w, &ArchiveStore::new(), t(2022));
        assert_eq!(report.examined, 0);
        assert_eq!(w.get("Clean").unwrap().revisions().len(), revs_before);
    }
}
