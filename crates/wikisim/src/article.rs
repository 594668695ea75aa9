//! Articles and edit histories.
//!
//! The paper extracts three facts from an article's history for every
//! permanently-dead link (§2.4): when the link was added, when it was marked
//! permanently dead, and by which username. [`Article::link_provenance`]
//! replays revisions to answer exactly that; [`Article::link_added_at`]
//! answers only the first, which is all IABot's copy lookup needs.

use crate::user::User;
use crate::wikitext::Document;
use permadead_net::SimTime;
use permadead_url::Url;

/// One saved edit.
#[derive(Debug, Clone)]
pub struct Revision {
    pub time: SimTime,
    pub user: User,
    pub text: String,
    /// Edit summary, bot runs leave one ("Rescuing 1 sources and tagging 1
    /// as dead.") — handy for debugging worlds.
    pub summary: String,
}

/// An article: a title and its revision history (oldest first).
#[derive(Debug, Clone)]
pub struct Article {
    pub title: String,
    revisions: Vec<Revision>,
}

/// Provenance of one link in one article, per §2.4.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkProvenance {
    /// When the URL first appeared in the article.
    pub added_at: SimTime,
    /// Who added it.
    pub added_by: String,
    /// When the `{{dead link}}` tag first appeared on it, if ever.
    pub marked_dead_at: Option<SimTime>,
    /// Who marked it.
    pub marked_dead_by: Option<String>,
}

impl Article {
    pub fn new(title: &str) -> Article {
        Article {
            title: title.to_string(),
            revisions: Vec::new(),
        }
    }

    /// Record an edit. Edits must arrive in time order.
    pub fn save(&mut self, time: SimTime, user: User, text: String, summary: &str) {
        if let Some(last) = self.revisions.last() {
            assert!(time >= last.time, "revisions must be time-ordered");
        }
        self.revisions.push(Revision {
            time,
            user,
            text,
            summary: summary.to_string(),
        });
    }

    /// Convenience: save a parsed document.
    pub fn save_doc(&mut self, time: SimTime, user: User, doc: &Document, summary: &str) {
        self.save(time, user, doc.render(), summary);
    }

    pub fn revisions(&self) -> &[Revision] {
        &self.revisions
    }

    /// The latest revision's text (empty before any edit).
    pub fn current_text(&self) -> &str {
        self.revisions.last().map(|r| r.text.as_str()).unwrap_or("")
    }

    /// The latest revision's parse.
    pub fn current_doc(&self) -> Document {
        Document::parse(self.current_text())
    }

    /// The text as of `t` (the last revision at or before `t`).
    pub fn text_at(&self, t: SimTime) -> &str {
        self.revisions
            .iter()
            .rev()
            .find(|r| r.time <= t)
            .map(|r| r.text.as_str())
            .unwrap_or("")
    }

    pub fn created_at(&self) -> Option<SimTime> {
        self.revisions.first().map(|r| r.time)
    }

    /// The revision that first cites `url`: the first whose parse has a
    /// reference to it. The substring test only skips revisions that
    /// cannot cite it, so a revision citing `http://e.org/10` does not count
    /// as adding `http://e.org/1`.
    fn link_added(&self, url: &Url) -> Option<usize> {
        let url_str = url.to_string();
        self.revisions.iter().position(|rev| {
            rev.text.contains(&url_str) && Document::parse(&rev.text).ref_for(url).is_some()
        })
    }

    /// When `url` was first cited, the date IABot's "closest-to-added-date
    /// copy" rule (§3/§4) looks up archived copies around.
    pub fn link_added_at(&self, url: &Url) -> Option<SimTime> {
        self.link_added(url).map(|i| self.revisions[i].time)
    }

    /// Replay history for one URL: first appearance, and first
    /// `{{dead link}}` tagging (§2.4's three data points).
    pub fn link_provenance(&self, url: &Url) -> Option<LinkProvenance> {
        let added = self.link_added(url)?;
        let marked = self.revisions[added..].iter().find(|rev| {
            Document::parse(&rev.text)
                .ref_for(url)
                .is_some_and(|r| r.is_permanently_dead())
        });
        let added = &self.revisions[added];
        Some(LinkProvenance {
            added_at: added.time,
            added_by: added.user.name.clone(),
            marked_dead_at: marked.map(|r| r.time),
            marked_dead_by: marked.map(|r| r.user.name.clone()),
        })
    }

    /// Does the current revision contain any permanently-dead link? (The
    /// category-membership predicate for §2.2's article list.)
    pub fn has_permanently_dead_link(&self) -> bool {
        self.current_doc().refs().any(|r| r.is_permanently_dead())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wikitext::{CiteRef, DeadLinkTag, UrlStatus};

    fn u(s: &str) -> Url {
        Url::parse(s).unwrap()
    }

    fn t(y: i32, m: u32) -> SimTime {
        SimTime::from_ymd(y, m, 1)
    }

    fn article_with_history() -> Article {
        let mut a = Article::new("Mars Express");
        // 2009: created with prose only
        a.save(t(2009, 1), User::human("Alice"), "About the mission.".into(), "create");
        // 2010: Bob adds a reference
        let mut doc = Document::parse("About the mission.");
        doc.push_ref(CiteRef::cite_web(u("http://esa.example/mars"), "ESA page"));
        a.save_doc(t(2010, 6), User::human("Bob"), &doc, "add ref");
        // 2021: IABot tags it permanently dead
        let mut doc = a.current_doc();
        {
            let r = doc.ref_for_mut(&u("http://esa.example/mars")).unwrap();
            r.url_status = UrlStatus::Dead;
            r.dead_link = Some(DeadLinkTag {
                date: "February 2021".into(),
                bot: Some("InternetArchiveBot".into()),
            });
        }
        a.save_doc(t(2021, 2), User::iabot(), &doc, "tagging 1 as dead");
        a
    }

    #[test]
    fn provenance_replay() {
        let a = article_with_history();
        let p = a.link_provenance(&u("http://esa.example/mars")).unwrap();
        assert_eq!(p.added_at, t(2010, 6));
        assert_eq!(p.added_by, "Bob");
        assert_eq!(p.marked_dead_at, Some(t(2021, 2)));
        assert_eq!(p.marked_dead_by.as_deref(), Some("InternetArchiveBot"));
        assert_eq!(a.link_added_at(&u("http://esa.example/mars")), Some(t(2010, 6)));
    }

    #[test]
    fn provenance_unmarked_link() {
        let mut a = Article::new("X");
        let mut doc = Document::new();
        doc.push_ref(CiteRef::cite_web(u("http://e.org/a"), "T"));
        a.save_doc(t(2015, 1), User::human("C"), &doc, "add");
        let p = a.link_provenance(&u("http://e.org/a")).unwrap();
        assert_eq!(p.marked_dead_at, None);
        assert_eq!(p.marked_dead_by, None);
    }

    #[test]
    fn a_url_is_not_added_by_a_longer_url_it_prefixes() {
        let mut a = Article::new("X");
        let mut doc = Document::new();
        doc.push_ref(CiteRef::cite_web(u("http://e.org/10"), "Ten"));
        a.save_doc(t(2012, 1), User::human("Early"), &doc, "add /10");
        doc.push_ref(CiteRef::cite_web(u("http://e.org/1"), "One"));
        a.save_doc(t(2016, 1), User::human("Late"), &doc, "add /1");

        assert_eq!(a.link_added_at(&u("http://e.org/10")), Some(t(2012, 1)));
        assert_eq!(a.link_added_at(&u("http://e.org/1")), Some(t(2016, 1)));
        let p = a.link_provenance(&u("http://e.org/1")).unwrap();
        assert_eq!((p.added_at, p.added_by.as_str()), (t(2016, 1), "Late"));
    }

    #[test]
    fn provenance_absent_link() {
        let a = article_with_history();
        assert!(a.link_provenance(&u("http://never.example/x")).is_none());
        assert_eq!(a.link_added_at(&u("http://never.example/x")), None);
    }

    #[test]
    fn text_at_replays_history() {
        let a = article_with_history();
        assert_eq!(a.text_at(t(2009, 6)), "About the mission.");
        assert!(a.text_at(t(2015, 1)).contains("esa.example"));
        assert!(!a.text_at(t(2015, 1)).contains("dead link"));
        assert!(a.text_at(t(2022, 1)).contains("dead link"));
        assert_eq!(a.text_at(t(2000, 1)), "");
    }

    #[test]
    fn category_predicate() {
        let a = article_with_history();
        assert!(a.has_permanently_dead_link());
        let mut b = Article::new("Clean");
        b.save(t(2020, 1), User::human("D"), "No refs.".into(), "create");
        assert!(!b.has_permanently_dead_link());
    }

    #[test]
    fn created_at() {
        let a = article_with_history();
        assert_eq!(a.created_at(), Some(t(2009, 1)));
        assert_eq!(Article::new("Empty").created_at(), None);
    }

    #[test]
    #[should_panic(expected = "time-ordered")]
    fn out_of_order_revisions_panic() {
        let mut a = Article::new("X");
        a.save(t(2015, 1), User::human("A"), "one".into(), "");
        a.save(t(2014, 1), User::human("A"), "two".into(), "");
    }
}
