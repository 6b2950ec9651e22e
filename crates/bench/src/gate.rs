//! The workspace JSON parser, re-exported under its historical path for the
//! repository benchmark, which imports it from here.

pub use ts_common::json;
