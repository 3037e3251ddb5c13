// QA102 fixture: calls through a type path reach only that type's
// functions. Mapped to crates/storage/src/paged.rs, with `docs` ranked
// before `pager`.

impl Quarry {
    pub fn new() -> Quarry {
        let docs = STATE.docs.lock();
        drop(docs);
        Quarry
    }

    pub fn reopen(&self) -> Quarry {
        let pager = self.pager.lock();
        let q = Self::new();
        drop(pager);
        q
    }
}

impl Row {
    pub fn new() -> Row {
        Row
    }

    pub fn again(&self) -> Row {
        let pager = self.pager.lock();
        let row = Self::new();
        drop(pager);
        row
    }
}

pub fn scan(image: &Image) -> Row {
    let pager = image.pager.lock();
    let row = Row::new();
    drop(pager);
    row
}

pub fn opens_a_facade(image: &Image) -> Quarry {
    let pager = image.pager.lock();
    let q = Quarry::new();
    drop(pager);
    q
}
